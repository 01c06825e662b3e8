// Wires an obs::Recorder to a running Experiment.
//
// ExperimentRecorder registers the standard probe set over the experiment's
// testbed (bottleneck queue level/drops/marks, Gilbert-Elliott link state,
// scheduler churn, BADABING probe tallies) and drives the recorder from the
// SIMULATION clock: a self-rescheduling event samples every `interval` of
// simulated time: the first sample at t = interval, the last at the largest
// multiple of interval <= the horizon.  Because sampling reads state without
// mutating it, attaching a recorder never changes what an experiment
// computes — table and figure outputs stay bit-identical.
//
// Lifecycle: construct after the experiment's probers are attached and
// before exp.run(); call finish() after run() to convert the ground-truth
// loss episodes into recorder annotations (and, for a recorder that samples
// the whole workload, to take a tail sample).
#ifndef BB_SCENARIOS_SIM_RECORD_H
#define BB_SCENARIOS_SIM_RECORD_H

#include <memory>

#include "obs/recorder.h"
#include "scenarios/experiment.h"

namespace bb::scenarios {

// Recording knobs carried by ReplicaPlan and the sweep engine; `enabled`
// additionally requires the obs kill switch (BB_OBS=off wins).
struct SimRecordingConfig {
    bool enabled{false};
    TimeNs interval{milliseconds(100)};  // simulated sampling cadence
    // Last sampling instant; zero = the workload's duration.  A recorder
    // with an explicit horizon samples that window only, with no tail sample.
    TimeNs horizon{TimeNs::zero()};
    std::size_t budget_bins{512};        // per-series memory budget
    std::size_t max_annotations{1024};
};

class ExperimentRecorder {
public:
    ExperimentRecorder(Experiment& exp, const SimRecordingConfig& cfg);

    ExperimentRecorder(const ExperimentRecorder&) = delete;
    ExperimentRecorder& operator=(const ExperimentRecorder&) = delete;

    // episode.start/episode.end annotations from the experiment's ground
    // truth (skipped when the bounded-memory truth path dropped the raw
    // episode record), preceded, when the horizon is the workload's
    // duration, by a final sample at the post-drain clock.  Idempotent.
    void finish();

    [[nodiscard]] obs::Recorder& recorder() noexcept { return *rec_; }
    // Shared handle for stashing the series in a ReplicaResult.
    [[nodiscard]] std::shared_ptr<obs::Recorder> share() const noexcept { return rec_; }

private:
    void sample();

    Experiment* exp_;
    SimRecordingConfig cfg_;
    TimeNs until_{TimeNs::zero()};
    std::shared_ptr<obs::Recorder> rec_;
    bool finished_{false};
};

}  // namespace bb::scenarios

#endif  // BB_SCENARIOS_SIM_RECORD_H

// ZING-style Poisson-modulated prober (paper §4.2) and the classical
// estimator applied to its output: loss frequency = fraction of probes lost;
// a loss episode = a maximal run of consecutively lost probes (Zhang et al.
// definition quoted in §4.2); episode duration = time from the first to the
// last lost probe of the run.
#ifndef BB_PROBES_ZING_H
#define BB_PROBES_ZING_H

#include <cstdint>
#include <vector>

#include "core/report_sink.h"
#include "core/types.h"
#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/stats.h"

namespace bb::probes {

struct ZingResult {
    std::uint64_t sent{0};
    std::uint64_t received{0};
    std::uint64_t lost{0};
    double loss_frequency{0.0};       // lost / sent
    double mean_duration_s{0.0};      // mean span of consecutive-loss runs
    double sd_duration_s{0.0};
    std::size_t loss_runs{0};         // number of runs (episodes seen by ZING)
    std::uint64_t max_run_length{0};  // longest run of consecutive losses
};

class ZingProber final : public sim::PacketSink {
public:
    struct Config {
        TimeNs mean_interval{milliseconds(100)};  // 10 Hz in the paper
        std::int32_t packet_bytes{256};
        int packets_per_flight{1};
        sim::FlowId flow{7000};
        TimeNs start{TimeNs::zero()};
        TimeNs stop{TimeNs::max()};
    };

    // Probes are emitted into `out` (the path toward the bottleneck); the
    // caller binds this object into the far-side demux so it receives its
    // own probes.
    ZingProber(sim::Scheduler& sched, const Config& cfg, sim::PacketSink& out, Rng rng);

    ZingProber(const ZingProber&) = delete;
    ZingProber& operator=(const ZingProber&) = delete;

    void accept(const sim::Packet& pkt) override;  // receiver side

    [[nodiscard]] ZingResult result() const;

    // Per-probe records (ZING measured one-way delay as well as loss, §4.2);
    // feed these to core::summarize_delays for the delay view of the path.
    [[nodiscard]] std::vector<core::ProbeOutcome> outcomes() const;
    void stream_outcomes(core::OutcomeSink& sink) const;

    [[nodiscard]] std::uint64_t probes_sent() const noexcept { return send_times_.size(); }
    [[nodiscard]] std::int64_t bytes_sent() const noexcept { return bytes_sent_; }

private:
    void emit();

    sim::Scheduler* sched_;
    Config cfg_;
    sim::PacketSink* out_;
    std::uint64_t next_id_;

    std::vector<TimeNs> send_times_;   // indexed by probe sequence
    std::vector<bool> received_;       // indexed by probe sequence
    std::vector<TimeNs> owd_;          // one-way delay of received probes
    std::int64_t bytes_sent_{0};
    Rng rng_;  // last, see util/rng.h
};

// Online form of the ZING loss-run analysis: consume probe outcomes in send
// order and fold consecutive-loss runs as they close, so the classical
// estimator too runs in O(1) memory.  finalize() is bit-identical to
// ZingProber::result() over the same outcome sequence.
class ZingRunAccumulator final : public core::OutcomeSink {
public:
    void consume(const core::ProbeOutcome& po) override;

    [[nodiscard]] ZingResult finalize() const;

private:
    ZingResult partial_{};       // running sent/received/lost/runs tallies
    RunningStats durations_;
    TimeNs run_start_{TimeNs::zero()};
    TimeNs last_lost_{TimeNs::zero()};
    std::uint64_t run_len_{0};
};

}  // namespace bb::probes

#endif  // BB_PROBES_ZING_H

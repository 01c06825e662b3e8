// Ground-truth instrumentation of the bottleneck queue — the simulated
// equivalent of the paper's DAG passive-capture cards on either side of the
// congested hop.
#ifndef BB_MEASURE_LOSS_MONITOR_H
#define BB_MEASURE_LOSS_MONITOR_H

#include <cstdint>
#include <optional>
#include <vector>

#include "measure/episodes.h"
#include "sim/queue_base.h"
#include "util/stats.h"
#include "util/time.h"

namespace bb::measure {

// Records every drop and, optionally, per-packet queueing delays at the
// bottleneck.  Registration happens in the constructor; the monitor must
// outlive the queue's last event.
//
// A departure's delay is the queue's own figure: dequeue time minus the
// enqueue time the queue reports with each departure (sojourn plus
// transmission time), so logging it costs one vector append per packet.
// Packets already buffered when the monitor attaches are logged too.
//
// With `streaming_truth` configured the monitor also feeds each drop into an
// online EpisodeAccumulator as it happens.
class LossMonitor {
public:
    struct Options {
        bool record_departures{false};  // needed for the delay-based heuristic
        bool count_probe_traffic{true};  // include probe packets in "truth"
        std::optional<EpisodeAccumulator::Config> streaming_truth;
    };

    LossMonitor(sim::Scheduler& sched, sim::QueueBase& queue, Options opts);
    LossMonitor(sim::Scheduler& sched, sim::QueueBase& queue)
        : LossMonitor(sched, queue, Options{}) {}

    LossMonitor(const LossMonitor&) = delete;
    LossMonitor& operator=(const LossMonitor&) = delete;

    // Fold in a loss that happened somewhere other than the monitored queue
    // (e.g. a GilbertElliottLink downstream of it), so ground truth covers
    // the whole path.  Calls must be non-decreasing in time relative to the
    // queue's own drops; links downstream of the queue satisfy this
    // naturally because their drops fire at later simulated instants.
    void observe_external_drop(TimeNs at, bool is_probe);

    [[nodiscard]] const std::vector<TimeNs>& drop_times() const noexcept { return drops_; }
    [[nodiscard]] const std::vector<DelayedDeparture>& departures() const noexcept {
        return departures_;
    }
    [[nodiscard]] std::uint64_t drops_total() const noexcept { return drops_count_; }
    [[nodiscard]] std::uint64_t cross_traffic_drops() const noexcept {
        return cross_drops_;
    }
    [[nodiscard]] std::uint64_t probe_drops() const noexcept { return probe_drops_; }

    // Router-centric loss rate over the run: L / (S + L) (paper §3).
    [[nodiscard]] double router_loss_rate() const noexcept;

    // Episode extraction with the gap rule.
    [[nodiscard]] std::vector<LossEpisode> episodes(TimeNs gap) const {
        return extract_episodes(drops_, gap);
    }

    // Episode extraction with the delay-based (web traffic) heuristic.
    [[nodiscard]] std::vector<LossEpisode> episodes_delay_based(TimeNs delay_floor,
                                                                TimeNs gap) const {
        return extract_episodes_delay_based(drops_, departures_, delay_floor, gap);
    }

    // The online gap-rule truth accumulator, or nullptr when not configured.
    // finalize() on it is bit-identical to episodes(gap) + summarize_truth
    // over the configured window.
    [[nodiscard]] const EpisodeAccumulator* streaming_truth() const noexcept {
        return truth_acc_ ? &*truth_acc_ : nullptr;
    }

private:
    sim::QueueBase* queue_;
    Options opts_;
    std::vector<TimeNs> drops_;
    std::vector<DelayedDeparture> departures_;
    std::optional<EpisodeAccumulator> truth_acc_;
    std::uint64_t drops_count_{0};
    std::uint64_t cross_drops_{0};
    std::uint64_t probe_drops_{0};
    std::uint64_t successes_{0};
};

// Periodically samples the bottleneck occupancy, expressed as queueing delay
// in seconds — the y-axis of the paper's Figures 4-6 and 8.
class QueueSampler {
public:
    QueueSampler(sim::Scheduler& sched, const sim::QueueBase& queue, TimeNs interval,
                 TimeNs until);

    [[nodiscard]] const TimeSeries& series() const noexcept { return series_; }

private:
    void sample();

    sim::Scheduler* sched_;
    const sim::QueueBase* queue_;
    TimeNs interval_;
    TimeNs until_;
    TimeSeries series_;
};

}  // namespace bb::measure

#endif  // BB_MEASURE_LOSS_MONITOR_H

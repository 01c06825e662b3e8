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

// Records every drop at the bottleneck and counts its departures.
// Registration happens in the constructor; the monitor must outlive the
// queue's last event.
//
// With `streaming_truth` configured the monitor also feeds each drop, and
// for the delay-based rule each departure with its queueing delay, into an
// online EpisodeAccumulator as it happens; no per-packet departure record is
// kept.  A departure's delay is the queue's own figure: dequeue time minus
// the enqueue time the queue reports with each departure (sojourn plus
// transmission time).  Packets already buffered when the monitor attaches
// count too.
class LossMonitor {
public:
    struct Options {
        bool count_probe_traffic{true};  // include probe packets in "truth"
        std::optional<EpisodeAccumulator::Config> streaming_truth;
    };

    LossMonitor(sim::Scheduler& sched, sim::QueueBase& queue, Options opts);
    LossMonitor(sim::Scheduler& sched, sim::QueueBase& queue)
        : LossMonitor(sched, queue, Options{}) {}

    LossMonitor(const LossMonitor&) = delete;
    LossMonitor& operator=(const LossMonitor&) = delete;

    // Fold in the loss of a packet that departed the monitored queue and died
    // downstream of it (e.g. on a GilbertElliottLink), so ground truth covers
    // the whole path.  The packet leaves S for L in the router loss rate.
    // Calls must come at the simulated instant of the loss, which downstream
    // links satisfy naturally.
    void observe_external_drop(TimeNs at, bool is_probe);

    [[nodiscard]] const std::vector<TimeNs>& drop_times() const noexcept { return drops_; }
    // Always empty: departures feed the truth accumulator and are not
    // logged.  Kept only because perfbench/harness.cpp reports its size.
    [[nodiscard]] const std::vector<DelayedDeparture>& departures() const noexcept {
        return no_departures_;
    }
    [[nodiscard]] std::uint64_t drops_total() const noexcept { return drops_count_; }
    [[nodiscard]] std::uint64_t cross_traffic_drops() const noexcept {
        return cross_drops_;
    }
    [[nodiscard]] std::uint64_t probe_drops() const noexcept { return probe_drops_; }

    // Router-centric loss rate over the run: L / (S + L) (paper §3), each
    // counted packet once: S is the departures not lost downstream, and
    // excluded probe traffic enters neither.
    [[nodiscard]] double router_loss_rate() const noexcept;

    // Episode extraction with the gap rule.
    [[nodiscard]] std::vector<LossEpisode> episodes(TimeNs gap) const {
        return extract_episodes(drops_, gap);
    }

    // The online truth accumulator, or nullptr when not configured.  With no
    // delay floor, its episodes() equal episodes(gap) over the same drops.
    [[nodiscard]] const EpisodeAccumulator* streaming_truth() const noexcept {
        return truth_acc_ ? &*truth_acc_ : nullptr;
    }

private:
    // The drop tally shared by queue and external drops; false when the
    // drop is excluded probe traffic.
    bool observe_drop(TimeNs at, bool is_probe);

    sim::QueueBase* queue_;
    Options opts_;
    std::vector<TimeNs> drops_;
    std::vector<DelayedDeparture> no_departures_;
    std::optional<EpisodeAccumulator> truth_acc_;
    bool feeds_departures_{false};  // the accumulator runs the delay rule
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

// Loss-episode definitions and extraction (paper §3).
//
// The paper's router-centric view: a loss episode starts when the router
// buffer overflows and ends when drops cease "for a sufficient period of time
// (longer than typical RTT)".  We therefore cluster drop events: drops closer
// than `gap` belong to one episode; the episode spans first..last drop.
#ifndef BB_MEASURE_EPISODES_H
#define BB_MEASURE_EPISODES_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/stats.h"
#include "util/time.h"

namespace bb::measure {

struct LossEpisode {
    TimeNs start{TimeNs::zero()};
    TimeNs end{TimeNs::zero()};
    std::uint32_t drops{0};

    [[nodiscard]] TimeNs duration() const noexcept { return end - start; }
};

// Cluster sorted drop timestamps into episodes.  `gap` is the quiet period
// that terminates an episode (default should be on the order of the RTT).
[[nodiscard]] std::vector<LossEpisode> extract_episodes(const std::vector<TimeNs>& drop_times,
                                                        TimeNs gap);

// The delay-based heuristic the paper uses to delineate episodes under bursty
// web-like traffic: an episode is a maximal segment whose first and last
// events are drops and in which the queueing delay of every departure between
// them stays at or above `delay_floor` (paper: within 10 ms of the 100 ms
// maximum, i.e. >= 90 ms).  Gap-rule clusters i-1 and i merge when at least
// one departure has `at` in [end of i-1, start of i], both ends inclusive,
// and every such departure meets the floor.  A batch wrapper over
// EpisodeAccumulator, which runs the rule online.
struct DelayedDeparture {
    TimeNs at;
    TimeNs queueing_delay;
};
[[nodiscard]] std::vector<LossEpisode> extract_episodes_delay_based(
    const std::vector<TimeNs>& drop_times, const std::vector<DelayedDeparture>& departures,
    TimeNs delay_floor, TimeNs gap);

// Ground-truth loss characteristics over an observation window, discretized
// to the probe slot width (paper §5: frequency of congested slots F, mean
// episode duration D).
struct TruthSummary {
    double frequency{0.0};         // fraction of slots overlapping an episode
    double mean_duration_s{0.0};   // mean episode duration, seconds
    double sd_duration_s{0.0};     // std dev of episode durations, seconds
    std::size_t episodes{0};
    std::uint64_t total_drops{0};
};

[[nodiscard]] TruthSummary summarize_truth(const std::vector<LossEpisode>& episodes,
                                           TimeNs slot_width, TimeNs window_begin,
                                           TimeNs window_end);

// True congested/uncongested indicator per slot over a window — the oracle
// series Y_i of §5.2.1, used by property tests and the synthetic consistency
// benches.
[[nodiscard]] std::vector<bool> congestion_slots(const std::vector<LossEpisode>& episodes,
                                                 TimeNs slot_width, TimeNs window_begin,
                                                 TimeNs window_end);

// Episodes as inclusive [first_slot, last_slot] intervals in the probe-slot
// discretization (input to core::match_episodes).
[[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>> episode_slot_intervals(
    const std::vector<LossEpisode>& episodes, TimeNs slot_width, TimeNs window_begin);

// Online episode delineation plus truth summarization over a fixed
// observation window: feed drops (and, for the delay rule, departures) one
// at a time in time order instead of storing the per-packet record.  Memory
// grows with the number of episodes, not packets.  extract_episodes runs the
// same clustering step, extract_episodes_delay_based is a loop over this
// class, and summarize_truth is a loop over add_episode(), so finalize()
// equals summarize_truth over episodes(), which equals the batch extraction
// over the same drops and departures.
//
// With `delay_floor` set, the merge of a new gap cluster into the previous
// one waits until simulated time passes the new cluster's first drop: a
// departure at that nanosecond counts whether it is dispatched before or
// after the drop.  finalize() and episodes() decide a pending merge on the
// departures seen so far, so both may be called mid-run.
class EpisodeAccumulator {
public:
    struct Config {
        TimeNs gap{milliseconds(100)};      // quiet period terminating an episode
        TimeNs slot_width{milliseconds(5)};
        TimeNs window_begin{TimeNs::zero()};
        TimeNs window_end{TimeNs::zero()};
        std::optional<TimeNs> delay_floor{};  // set: the delay-based heuristic
    };

    explicit EpisodeAccumulator(Config cfg) : cfg_{cfg} {}

    // Drops and departures must arrive in time order (the simulator's event
    // order); within one nanosecond they may interleave in any order.
    void add_drop(TimeNs at);

    // One departure from the monitored queue and its queueing delay.  Only
    // the delay rule reads departures; without a delay floor this is a no-op.
    void add_departure(TimeNs at, TimeNs queueing_delay);

    // Fold an already-delineated episode into the summary and the episode
    // list.
    void add_episode(const LossEpisode& e) { close(e); }

    [[nodiscard]] TruthSummary finalize() const;

    // Every episode so far in time order, the open one included.
    [[nodiscard]] std::vector<LossEpisode> episodes() const;

    [[nodiscard]] std::uint64_t drops_seen() const noexcept { return drops_seen_; }
    [[nodiscard]] const Config& config() const noexcept { return cfg_; }

private:
    struct Fold {
        std::int64_t congested_slots{0};
        RunningStats durations;
        std::size_t episodes{0};
        std::uint64_t drops{0};
    };

    // Departures seen over some time range: whether there was any, and
    // whether every one of them met the delay floor.
    struct DelayRun {
        bool any{false};
        bool full{true};
        void add(bool meets_floor) noexcept {
            any = true;
            full = full && meets_floor;
        }
        [[nodiscard]] bool merges() const noexcept { return any && full; }
    };

    // The window filter and slot clamping of the truth summary.
    void fold_episode(Fold& fold, const LossEpisode& e) const;
    void close(const LossEpisode& e);
    void decide_pending();
    // Calls f on the episodes not yet closed, in time order, with a pending
    // merge decided on the departures seen so far.
    template <typename F>
    void for_each_unclosed(F&& f) const;

    Config cfg_;
    std::optional<LossEpisode> open_;
    std::uint64_t drops_seen_{0};
    Fold closed_{};
    std::vector<LossEpisode> closed_episodes_;

    // Delay rule state.  `pending_` is the previous episode while the merge
    // of `open_` into it waits on departures at open_->start; `pending_run_`
    // covers the departures from pending_->end on.  `since_drop_` covers the
    // departures from open_->end on, `last_tick_` those at `last_departure_`.
    std::optional<LossEpisode> pending_;
    DelayRun pending_run_;
    DelayRun since_drop_;
    DelayRun last_tick_;
    TimeNs last_departure_{TimeNs::zero()};
};

}  // namespace bb::measure

#endif  // BB_MEASURE_EPISODES_H

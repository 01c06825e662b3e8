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
// them stays above `delay_floor` (paper: within 10 ms of the 100 ms maximum,
// i.e. >= 90 ms).
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

// Online gap-rule episode clustering plus truth summarization over a fixed
// observation window, in O(1) memory: feed drop timestamps one at a time (in
// time order) instead of storing the full drop log.  extract_episodes runs
// the same clustering step and summarize_truth is a loop over add_episode(),
// so finalize() equals extract_episodes + summarize_truth over the same
// drops.  (The delay-based web heuristic needs the departure record; its
// episodes are summarized through add_episode.)
class EpisodeAccumulator {
public:
    struct Config {
        TimeNs gap{milliseconds(100)};      // quiet period terminating an episode
        TimeNs slot_width{milliseconds(5)};
        TimeNs window_begin{TimeNs::zero()};
        TimeNs window_end{TimeNs::zero()};
    };

    explicit EpisodeAccumulator(Config cfg) : cfg_{cfg} {}

    // Drop timestamps must be non-decreasing (the natural event order).
    void add_drop(TimeNs at);

    // Fold an already-delineated episode (e.g. one from the delay-based
    // heuristic) into the summary.
    void add_episode(const LossEpisode& e) { fold_episode(closed_, e); }

    [[nodiscard]] TruthSummary finalize() const;

    [[nodiscard]] std::uint64_t drops_seen() const noexcept { return drops_seen_; }
    [[nodiscard]] const Config& config() const noexcept { return cfg_; }

private:
    struct Fold {
        std::int64_t congested_slots{0};
        RunningStats durations;
        std::size_t episodes{0};
        std::uint64_t drops{0};
    };

    // The window filter and slot clamping of the truth summary.
    void fold_episode(Fold& fold, const LossEpisode& e) const;

    Config cfg_;
    std::optional<LossEpisode> open_;
    std::uint64_t drops_seen_{0};
    Fold closed_{};
};

}  // namespace bb::measure

#endif  // BB_MEASURE_EPISODES_H

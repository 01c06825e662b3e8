#include "measure/episodes.h"

#include <algorithm>
#include <optional>

#include "util/contract.h"
#include "util/stats.h"

namespace bb::measure {

namespace {

// The gap rule (§3), one drop at a time: a drop within `gap` of the open
// episode's last drop extends it; any other drop hands the open episode to
// `close` and opens a new one.
template <typename Close>
void cluster_drop(std::optional<LossEpisode>& open, TimeNs at, TimeNs gap, Close&& close) {
    if (open) {
        // Clustering only works on a time-ordered drop stream; an
        // out-of-order drop would silently shrink the open episode.
        BB_DCHECK_MSG(at >= open->end, "episode clustering: drops must arrive in time order");
        if (at - open->end <= gap) {
            open->end = at;
            ++open->drops;
            return;
        }
        close(*open);
    }
    open = LossEpisode{at, at, 1};
}

// Number of whole slots in the window [begin, end); 0 for a degenerate one.
std::int64_t window_slots(TimeNs slot_width, TimeNs begin, TimeNs end) {
    if (end <= begin || slot_width.ns() <= 0) return 0;
    return (end - begin) / slot_width;
}

// The inclusive slot range of that window an episode overlaps, or nullopt
// when it misses the window.  The window is half-open: an episode touching
// `end` exactly must not index one past the last slot.  `first` may equal
// `total_slots` (an episode starting in a trailing partial slot), giving an
// empty range.
std::optional<std::pair<std::int64_t, std::int64_t>> window_span(const LossEpisode& e,
                                                                 TimeNs slot_width,
                                                                 TimeNs begin, TimeNs end,
                                                                 std::int64_t total_slots) {
    if (total_slots <= 0 || e.end < begin || e.start >= end) return std::nullopt;
    const TimeNs lo = std::max(e.start, begin);
    const TimeNs hi = std::min(e.end, end);
    return std::pair{(lo - begin) / slot_width,
                     std::min((hi - begin) / slot_width, total_slots - 1)};
}

}  // namespace

std::vector<LossEpisode> extract_episodes(const std::vector<TimeNs>& drop_times, TimeNs gap) {
    std::vector<LossEpisode> out;
    std::optional<LossEpisode> open;
    const auto close = [&out](const LossEpisode& e) { out.push_back(e); };
    for (const TimeNs t : drop_times) cluster_drop(open, t, gap, close);
    if (open) close(*open);
    return out;
}

std::vector<LossEpisode> extract_episodes_delay_based(
    const std::vector<TimeNs>& drop_times, const std::vector<DelayedDeparture>& departures,
    TimeNs delay_floor, TimeNs gap) {
    // First cluster by gap as usual, then trim/merge based on whether the
    // departures between consecutive drops kept the queue near-full.  Two
    // adjacent clusters are merged when every departure between them stayed
    // above the delay floor (the queue never really drained).
    std::vector<LossEpisode> clusters = extract_episodes(drop_times, gap);
    if (clusters.size() < 2) return clusters;

    BB_DCHECK_MSG(std::is_sorted(departures.begin(), departures.end(),
                                 [](const DelayedDeparture& a, const DelayedDeparture& b) {
                                     return a.at < b.at;
                                 }),
                  "episode extraction: departures must be time-ordered");

    const auto queue_stayed_full = [&](TimeNs from, TimeNs to) {
        auto it = std::lower_bound(departures.begin(), departures.end(), from,
                                   [](const DelayedDeparture& d, TimeNs t) { return d.at < t; });
        bool saw_any = false;
        for (; it != departures.end() && it->at <= to; ++it) {
            saw_any = true;
            if (it->queueing_delay < delay_floor) return false;
        }
        return saw_any;
    };

    std::vector<LossEpisode> merged;
    merged.push_back(clusters.front());
    for (std::size_t i = 1; i < clusters.size(); ++i) {
        LossEpisode& prev = merged.back();
        const LossEpisode& next = clusters[i];
        if (queue_stayed_full(prev.end, next.start)) {
            prev.end = next.end;
            prev.drops += next.drops;
        } else {
            merged.push_back(next);
        }
    }
    return merged;
}

TruthSummary summarize_truth(const std::vector<LossEpisode>& episodes, TimeNs slot_width,
                             TimeNs window_begin, TimeNs window_end) {
    EpisodeAccumulator acc{{.slot_width = slot_width,
                            .window_begin = window_begin,
                            .window_end = window_end}};
    for (const auto& e : episodes) acc.add_episode(e);
    return acc.finalize();
}

std::vector<bool> congestion_slots(const std::vector<LossEpisode>& episodes, TimeNs slot_width,
                                   TimeNs window_begin, TimeNs window_end) {
    const std::int64_t total_slots = window_slots(slot_width, window_begin, window_end);
    std::vector<bool> slots(static_cast<std::size_t>(total_slots), false);
    for (const auto& e : episodes) {
        const auto span = window_span(e, slot_width, window_begin, window_end, total_slots);
        if (!span) continue;
        for (std::int64_t i = span->first; i <= span->second; ++i) {
            slots[static_cast<std::size_t>(i)] = true;
        }
    }
    return slots;
}

void EpisodeAccumulator::add_drop(TimeNs at) {
    ++drops_seen_;
    cluster_drop(open_, at, cfg_.gap,
                 [this](const LossEpisode& e) { fold_episode(closed_, e); });
}

void EpisodeAccumulator::fold_episode(Fold& fold, const LossEpisode& e) const {
    const auto span = window_span(e, cfg_.slot_width, cfg_.window_begin, cfg_.window_end,
                                  window_slots(cfg_.slot_width, cfg_.window_begin,
                                               cfg_.window_end));
    if (!span) return;
    fold.congested_slots += span->second - span->first + 1;
    fold.durations.add(e.duration().to_seconds());
    ++fold.episodes;
    fold.drops += e.drops;
}

TruthSummary EpisodeAccumulator::finalize() const {
    TruthSummary s;
    const std::int64_t total_slots =
        window_slots(cfg_.slot_width, cfg_.window_begin, cfg_.window_end);
    if (total_slots <= 0) return s;

    Fold fold = closed_;
    if (open_) fold_episode(fold, *open_);

    const std::int64_t congested = std::min(fold.congested_slots, total_slots);
    s.frequency = static_cast<double>(congested) / static_cast<double>(total_slots);
    s.mean_duration_s = fold.durations.mean();
    s.sd_duration_s = fold.durations.stddev();
    s.episodes = fold.episodes;
    s.total_drops = fold.drops;
    return s;
}

std::vector<std::pair<std::int64_t, std::int64_t>> episode_slot_intervals(
    const std::vector<LossEpisode>& episodes, TimeNs slot_width, TimeNs window_begin) {
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    out.reserve(episodes.size());
    for (const auto& e : episodes) {
        if (e.end < window_begin) continue;
        const TimeNs lo = std::max(e.start, window_begin);
        out.emplace_back((lo - window_begin) / slot_width, (e.end - window_begin) / slot_width);
    }
    return out;
}

}  // namespace bb::measure

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

// The delay rule's merge: `next` absorbs the episode before it.
void absorb(LossEpisode& next, const LossEpisode& prev) {
    next.start = prev.start;
    next.drops += prev.drops;
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
    EpisodeAccumulator acc{{.gap = gap, .delay_floor = delay_floor}};
    auto dep = departures.begin();
    for (const TimeNs t : drop_times) {
        for (; dep != departures.end() && dep->at <= t; ++dep) {
            acc.add_departure(dep->at, dep->queueing_delay);
        }
        acc.add_drop(t);
    }
    for (; dep != departures.end(); ++dep) acc.add_departure(dep->at, dep->queueing_delay);
    return acc.episodes();
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
    if (!cfg_.delay_floor) {
        cluster_drop(open_, at, cfg_.gap, [this](const LossEpisode& e) { close(e); });
        return;
    }
    BB_DCHECK_MSG(!last_tick_.any || at >= last_departure_,
                  "episode delineation: drops and departures must arrive in time order");
    if (pending_ && at > open_->start) decide_pending();
    // A cluster the gap rule ends waits for its merge decision; the
    // departures since its last drop are the first part of the run between.
    cluster_drop(open_, at, cfg_.gap, [this](const LossEpisode& e) {
        BB_DCHECK(!pending_);
        pending_ = e;
        pending_run_ = since_drop_;
    });
    // The run after this drop starts with the departures already seen at
    // its own nanosecond.
    since_drop_ = last_tick_.any && last_departure_ == at ? last_tick_ : DelayRun{};
}

void EpisodeAccumulator::add_departure(TimeNs at, TimeNs queueing_delay) {
    if (!cfg_.delay_floor) return;
    BB_DCHECK_MSG((!last_tick_.any || at >= last_departure_) && (!open_ || at >= open_->end),
                  "episode delineation: drops and departures must arrive in time order");
    if (pending_ && at > open_->start) decide_pending();
    const bool meets_floor = queueing_delay >= *cfg_.delay_floor;
    if (at != last_departure_) last_tick_ = DelayRun{};
    last_departure_ = at;
    last_tick_.add(meets_floor);
    since_drop_.add(meets_floor);
    if (pending_) pending_run_.add(meets_floor);
}

void EpisodeAccumulator::decide_pending() {
    if (pending_run_.merges()) {
        absorb(*open_, *pending_);
    } else {
        close(*pending_);
    }
    pending_.reset();
}

void EpisodeAccumulator::close(const LossEpisode& e) {
    fold_episode(closed_, e);
    closed_episodes_.push_back(e);
}

template <typename F>
void EpisodeAccumulator::for_each_unclosed(F&& f) const {
    if (!open_) return;
    LossEpisode last = *open_;
    if (pending_) {
        if (pending_run_.merges()) {
            absorb(last, *pending_);
        } else {
            f(*pending_);
        }
    }
    f(last);
}

std::vector<LossEpisode> EpisodeAccumulator::episodes() const {
    std::vector<LossEpisode> out = closed_episodes_;
    for_each_unclosed([&out](const LossEpisode& e) { out.push_back(e); });
    return out;
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
    for_each_unclosed([&](const LossEpisode& e) { fold_episode(fold, e); });

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

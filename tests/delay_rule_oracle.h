// Test oracle for the delay-based episode rule: the batch algorithm over a
// full drop and departure record, kept here so the online
// EpisodeAccumulator (and extract_episodes_delay_based, a loop over it) is
// checked against an independent implementation.
#ifndef BB_TESTS_DELAY_RULE_ORACLE_H
#define BB_TESTS_DELAY_RULE_ORACLE_H

#include <algorithm>
#include <vector>

#include "measure/episodes.h"

namespace bb::measure::testing {

// Cluster the sorted drops by the gap rule, then merge cluster i into the
// episode before it when at least one departure has `at` in
// [C(i-1).end, C(i).start] and every such departure has a queueing delay of
// at least `delay_floor`.  `departures` must be sorted by `at`.
inline std::vector<LossEpisode> delay_rule_oracle(const std::vector<TimeNs>& drop_times,
                                                  const std::vector<DelayedDeparture>& departures,
                                                  TimeNs delay_floor, TimeNs gap) {
    const std::vector<LossEpisode> clusters = extract_episodes(drop_times, gap);
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
    for (const LossEpisode& next : clusters) {
        if (!merged.empty() && queue_stayed_full(merged.back().end, next.start)) {
            merged.back().end = next.end;
            merged.back().drops += next.drops;
        } else {
            merged.push_back(next);
        }
    }
    return merged;
}

inline bool same_episodes(const std::vector<LossEpisode>& a, const std::vector<LossEpisode>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const LossEpisode& x, const LossEpisode& y) {
                          return x.start == y.start && x.end == y.end && x.drops == y.drops;
                      });
}

}  // namespace bb::measure::testing

#endif  // BB_TESTS_DELAY_RULE_ORACLE_H

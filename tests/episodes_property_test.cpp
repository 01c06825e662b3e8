// Property-based tests for loss-episode extraction: invariants that must
// hold for arbitrary drop patterns, checked over randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>

#include "delay_rule_oracle.h"
#include "measure/episodes.h"
#include "util/rng.h"

namespace bb::measure {
namespace {

struct FuzzParams {
    std::uint64_t seed;
    int drops;
    double spread_s;  // drops uniform over [0, spread]
    std::int64_t gap_ms;
};

class EpisodeFuzz : public ::testing::TestWithParam<FuzzParams> {};

std::vector<TimeNs> random_drops(const FuzzParams& p) {
    Rng rng{p.seed};
    std::vector<TimeNs> drops;
    drops.reserve(static_cast<std::size_t>(p.drops));
    for (int i = 0; i < p.drops; ++i) {
        drops.push_back(seconds(rng.uniform(0.0, p.spread_s)));
    }
    std::sort(drops.begin(), drops.end());
    return drops;
}

TEST_P(EpisodeFuzz, EpisodesPartitionDrops) {
    const auto drops = random_drops(GetParam());
    const TimeNs gap = milliseconds(GetParam().gap_ms);
    const auto eps = extract_episodes(drops, gap);
    std::uint64_t covered = 0;
    for (const auto& e : eps) covered += e.drops;
    EXPECT_EQ(covered, drops.size());
}

TEST_P(EpisodeFuzz, EpisodesAreOrderedAndSeparatedByGap) {
    const auto drops = random_drops(GetParam());
    const TimeNs gap = milliseconds(GetParam().gap_ms);
    const auto eps = extract_episodes(drops, gap);
    for (std::size_t i = 0; i < eps.size(); ++i) {
        EXPECT_LE(eps[i].start, eps[i].end);
        if (i > 0) {
            EXPECT_GT(eps[i].start - eps[i - 1].end, gap)
                << "adjacent episodes must be separated by more than the gap";
        }
    }
}

TEST_P(EpisodeFuzz, EveryDropFallsInsideSomeEpisode) {
    const auto drops = random_drops(GetParam());
    const TimeNs gap = milliseconds(GetParam().gap_ms);
    const auto eps = extract_episodes(drops, gap);
    for (const TimeNs d : drops) {
        const bool inside = std::any_of(eps.begin(), eps.end(), [d](const LossEpisode& e) {
            return d >= e.start && d <= e.end;
        });
        EXPECT_TRUE(inside);
    }
}

TEST_P(EpisodeFuzz, LargerGapNeverIncreasesEpisodeCount) {
    const auto drops = random_drops(GetParam());
    const TimeNs gap = milliseconds(GetParam().gap_ms);
    const auto fine = extract_episodes(drops, gap);
    const auto coarse = extract_episodes(drops, gap * 4);
    EXPECT_LE(coarse.size(), fine.size());
}

TEST_P(EpisodeFuzz, FrequencyWithinUnitIntervalAndConsistentWithSlots) {
    const auto drops = random_drops(GetParam());
    const TimeNs gap = milliseconds(GetParam().gap_ms);
    const auto eps = extract_episodes(drops, gap);
    const TimeNs window = seconds(GetParam().spread_s) + seconds_i(1);
    const auto truth = summarize_truth(eps, milliseconds(5), TimeNs::zero(), window);
    EXPECT_GE(truth.frequency, 0.0);
    EXPECT_LE(truth.frequency, 1.0);

    const auto slots = congestion_slots(eps, milliseconds(5), TimeNs::zero(), window);
    const auto marked = static_cast<double>(std::count(slots.begin(), slots.end(), true));
    EXPECT_NEAR(truth.frequency, marked / static_cast<double>(slots.size()), 1e-12);
}

TEST_P(EpisodeFuzz, DelayBasedNeverSplitsFurther) {
    const auto drops = random_drops(GetParam());
    const TimeNs gap = milliseconds(GetParam().gap_ms);
    Rng rng{GetParam().seed ^ 0xD};
    // Random departures with random queueing delays between drops.
    std::vector<DelayedDeparture> deps;
    for (int i = 0; i < 200; ++i) {
        deps.push_back({seconds(rng.uniform(0.0, GetParam().spread_s)),
                        milliseconds(rng.uniform_int(0, 100))});
    }
    std::sort(deps.begin(), deps.end(),
              [](const DelayedDeparture& a, const DelayedDeparture& b) { return a.at < b.at; });
    const auto plain = extract_episodes(drops, gap);
    const auto merged = extract_episodes_delay_based(drops, deps, milliseconds(90), gap);
    EXPECT_LE(merged.size(), plain.size());
    std::uint64_t covered = 0;
    for (const auto& e : merged) covered += e.drops;
    EXPECT_EQ(covered, drops.size());
}

INSTANTIATE_TEST_SUITE_P(Fuzz, EpisodeFuzz,
                         ::testing::Values(FuzzParams{1, 0, 10.0, 100},
                                           FuzzParams{2, 1, 10.0, 100},
                                           FuzzParams{3, 50, 10.0, 100},
                                           FuzzParams{4, 500, 10.0, 100},
                                           FuzzParams{5, 500, 1.0, 100},   // dense
                                           FuzzParams{6, 500, 1000.0, 100},  // sparse
                                           FuzzParams{7, 200, 10.0, 5},
                                           FuzzParams{8, 200, 10.0, 2000}));

// --- the delay rule online vs the batch oracle -------------------------------

// One event of a dispatch order: a drop, or a departure with its delay.
struct StreamEvent {
    TimeNs at;
    bool drop;
    TimeNs delay;
};

// Streams on a coarse nanosecond grid so that ties are the rule: each tick
// dispatches a random mix of drops and departures in a random order (drops
// before, after and between departures of the same nanosecond, several drops
// in one nanosecond), ticks may be empty, departures come before the first
// drop and after the last, and some streams are empty.  Drops lost
// downstream of the queue reach the accumulator as plain drops, so they are
// covered here too (LossMonitor.DelayRuleCountsDownstreamDrops runs them end
// to end).
std::vector<StreamEvent> random_stream(Rng& rng) {
    std::vector<StreamEvent> events;
    if (rng.bernoulli(0.02)) return events;
    const std::int64_t ticks = rng.uniform_int(1, 30);
    const double p_event = rng.uniform(0.1, 1.0);
    const double p_drop = rng.uniform(0.05, 0.6);
    for (std::int64_t t = 0; t < ticks; ++t) {
        const std::int64_t n = rng.bernoulli(p_event) ? rng.uniform_int(1, 4) : 0;
        for (std::int64_t i = 0; i < n; ++i) {
            const bool drop = rng.bernoulli(p_drop);
            events.push_back({nanoseconds(t), drop, nanoseconds(rng.uniform_int(0, 4))});
        }
    }
    return events;
}

void expect_same_summary(const TruthSummary& got, const TruthSummary& want) {
    EXPECT_EQ(got.frequency, want.frequency);
    EXPECT_EQ(got.mean_duration_s, want.mean_duration_s);
    EXPECT_EQ(got.sd_duration_s, want.sd_duration_s);
    EXPECT_EQ(got.episodes, want.episodes);
    EXPECT_EQ(got.total_drops, want.total_drops);
}

TEST(DelayRuleOnline, MatchesBatchOracleOnRandomStreams) {
    Rng rng{0xDE1A7};
    for (int trial = 0; trial < 20'000; ++trial) {
        SCOPED_TRACE(trial);
        const TimeNs gap = nanoseconds(rng.uniform_int(0, 5));
        const TimeNs floor = nanoseconds(rng.uniform_int(0, 4));
        const std::vector<StreamEvent> events = random_stream(rng);
        // Every prefix is a mid-run view: episodes() and finalize() decide a
        // pending merge on the departures seen so far, as the oracle does.
        const bool check_prefixes = trial % 10 == 0;

        EpisodeAccumulator acc{{.gap = gap,
                                .slot_width = nanoseconds(2),
                                .window_begin = nanoseconds(3),
                                .window_end = nanoseconds(25),
                                .delay_floor = floor}};
        std::vector<TimeNs> drops;
        std::vector<DelayedDeparture> deps;
        for (const StreamEvent& ev : events) {
            if (ev.drop) {
                acc.add_drop(ev.at);
                drops.push_back(ev.at);
            } else {
                acc.add_departure(ev.at, ev.delay);
                deps.push_back({ev.at, ev.delay});
            }
            if (!check_prefixes) continue;
            const auto want = testing::delay_rule_oracle(drops, deps, floor, gap);
            ASSERT_TRUE(testing::same_episodes(acc.episodes(), want));
            expect_same_summary(acc.finalize(),
                                summarize_truth(want, nanoseconds(2), nanoseconds(3),
                                                nanoseconds(25)));
        }
        const auto want = testing::delay_rule_oracle(drops, deps, floor, gap);
        ASSERT_TRUE(testing::same_episodes(acc.episodes(), want));
        ASSERT_TRUE(
            testing::same_episodes(extract_episodes_delay_based(drops, deps, floor, gap), want));
        expect_same_summary(acc.finalize(), summarize_truth(want, nanoseconds(2), nanoseconds(3),
                                                            nanoseconds(25)));
        EXPECT_EQ(acc.drops_seen(), drops.size());
    }
}

TEST(DelayRuleOnline, TieAtTheNewClustersFirstDropCountsInEitherOrder) {
    // Clusters at 0 and 10 ns (gap 1 ns); the only departure in [0, 10] is at
    // 10 ns, dispatched before or after that drop.  A full one merges, a
    // short one splits, in both orders; the merge is open until time passes.
    for (const bool departure_first : {true, false}) {
        for (const auto& [delay, merged] : {std::pair{nanoseconds(5), true},
                                            std::pair{nanoseconds(4), false}}) {
            SCOPED_TRACE(departure_first);
            EpisodeAccumulator acc{{.gap = nanoseconds(1), .delay_floor = nanoseconds(5)}};
            acc.add_drop(TimeNs::zero());
            if (departure_first) acc.add_departure(nanoseconds(10), delay);
            acc.add_drop(nanoseconds(10));
            if (!departure_first) {
                EXPECT_EQ(acc.episodes().size(), 2u) << "no departure between yet";
                acc.add_departure(nanoseconds(10), delay);
            }
            EXPECT_EQ(acc.episodes().size(), merged ? 1u : 2u);
            acc.add_departure(nanoseconds(11), nanoseconds(0));  // time passes
            const auto eps = acc.episodes();
            ASSERT_EQ(eps.size(), merged ? 1u : 2u);
            EXPECT_EQ(eps.front().start, TimeNs::zero());
            EXPECT_EQ(eps.back().end, nanoseconds(10));
        }
    }
}

TEST(DelayRuleOnline, WithoutAFloorDeparturesAreIgnored) {
    EpisodeAccumulator acc{{.gap = nanoseconds(1)}};
    acc.add_drop(TimeNs::zero());
    acc.add_departure(nanoseconds(5), nanoseconds(100));
    acc.add_drop(nanoseconds(10));
    EXPECT_TRUE(testing::same_episodes(acc.episodes(),
                                       extract_episodes({TimeNs::zero(), nanoseconds(10)},
                                                        nanoseconds(1))));
}

}  // namespace
}  // namespace bb::measure

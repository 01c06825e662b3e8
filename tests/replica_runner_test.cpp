#include "scenarios/replica_runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "scenarios/sweep.h"
#include "util/json.h"

namespace bb::scenarios {
namespace {

// A small-but-real scenario: CBR with engineered 68 ms loss episodes every
// ~2 s, 8 simulated seconds per replica, BADABING at p = 0.3.
ReplicaPlan short_cbr_plan() {
    ReplicaPlan plan;
    plan.spec.workload.kind = TrafficKind::cbr_uniform;
    plan.spec.workload.duration = seconds_i(8);
    plan.spec.workload.seed = 7;  // master seed; replicas fork from it
    plan.spec.workload.episode_duration = milliseconds(68);
    plan.spec.workload.mean_episode_gap = seconds_i(2);
    plan.spec.badabing.p = 0.3;
    plan.spec.badabing.total_slots = 0;
    return plan;
}

ReplicaRunner::Config runner_config(std::size_t replicas, std::size_t threads) {
    ReplicaRunner::Config cfg;
    cfg.replicas = replicas;
    cfg.threads = threads;
    cfg.master_seed = 7;
    return cfg;
}

void expect_identical(const ReplicaResult& a, const ReplicaResult& b) {
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.seed, b.seed);
    // Sufficient statistics of the estimate: the full y-state tallies.
    EXPECT_EQ(a.result.counts.basic, b.result.counts.basic);
    EXPECT_EQ(a.result.counts.extended, b.result.counts.extended);
    EXPECT_EQ(a.result.probes_sent, b.result.probes_sent);
    EXPECT_EQ(a.result.packets_lost, b.result.packets_lost);
    EXPECT_EQ(a.result.frequency.value, b.result.frequency.value);
    EXPECT_EQ(a.result.duration_basic.slots, b.result.duration_basic.slots);
    EXPECT_EQ(a.truth.frequency, b.truth.frequency);
    EXPECT_EQ(a.truth.mean_duration_s, b.truth.mean_duration_s);
    EXPECT_EQ(a.truth.total_drops, b.truth.total_drops);
    EXPECT_EQ(a.offered_load, b.offered_load);
}

void expect_identical(const AggregateStat& a, const AggregateStat& b) {
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
    EXPECT_EQ(a.ci.lo, b.ci.lo);
    EXPECT_EQ(a.ci.hi, b.ci.hi);
    EXPECT_EQ(a.ci.point, b.ci.point);
}

// The tentpole invariant: same master seed => bit-identical per-replica
// results and aggregates, regardless of thread count.  Seeding is
// positional, so the scheduler can only reorder work, not change it.
TEST(ReplicaRunner, ThreadCountDoesNotChangeResults) {
    const auto plan = short_cbr_plan();
    const ReplicaRunner serial{runner_config(6, 1)};
    const ReplicaRunner parallel{runner_config(6, 8)};

    const auto r1 = serial.run(plan);
    const auto r8 = parallel.run(plan);
    ASSERT_EQ(r1.size(), 6u);
    ASSERT_EQ(r8.size(), 6u);
    for (std::size_t i = 0; i < r1.size(); ++i) {
        SCOPED_TRACE(i);
        expect_identical(r1[i], r8[i]);
    }

    const auto a1 = serial.aggregate(plan, r1);
    const auto a8 = parallel.aggregate(plan, r8);
    ASSERT_EQ(a1.stats.size(), a8.stats.size());
    for (std::size_t s = 0; s < a1.stats.size(); ++s) {
        SCOPED_TRACE(s);
        ASSERT_EQ(a1.stats[s].first, a8.stats[s].first);
        ASSERT_EQ(a1.stats[s].second.has_value(), a8.stats[s].second.has_value());
        if (a1.stats[s].second) expect_identical(*a1.stats[s].second, *a8.stats[s].second);
    }
}

TEST(ReplicaRunner, SeedsArePositionalAndPrefixStable) {
    const auto s4 = ReplicaRunner::replica_seeds(7, 4);
    const auto s8 = ReplicaRunner::replica_seeds(7, 8);
    ASSERT_EQ(s4.size(), 4u);
    ASSERT_EQ(s8.size(), 8u);
    // Growing the replica count must not disturb earlier replicas' streams.
    for (std::size_t i = 0; i < s4.size(); ++i) EXPECT_EQ(s4[i], s8[i]);
    // All seeds distinct.
    const std::set<std::uint64_t> unique(s8.begin(), s8.end());
    EXPECT_EQ(unique.size(), s8.size());
    // Different master seed => different streams.
    EXPECT_NE(ReplicaRunner::replica_seeds(8, 4)[0], s4[0]);
}

TEST(ReplicaRunner, ReplicasAreActuallyIndependentRuns) {
    const auto plan = short_cbr_plan();
    const ReplicaRunner runner{runner_config(4, 2)};
    const auto results = runner.run(plan);
    ASSERT_EQ(results.size(), 4u);
    // Different seeds produce different probe designs (geometric draws), so
    // at least one pair of replicas must differ in probes sent.
    bool any_difference = false;
    for (std::size_t i = 1; i < results.size(); ++i) {
        if (results[i].result.probes_sent != results[0].result.probes_sent ||
            results[i].truth.total_drops != results[0].truth.total_drops) {
            any_difference = true;
        }
    }
    EXPECT_TRUE(any_difference);
    // Every replica saw the engineered congestion.
    for (const auto& r : results) {
        EXPECT_GT(r.result.probes_sent, 0u);
        EXPECT_GT(r.truth.total_drops, 0u);
    }
}

TEST(ReplicaRunner, SingleReplicaAggregationDegeneratesGracefully) {
    const auto plan = short_cbr_plan();
    const ReplicaRunner runner{runner_config(1, 1)};
    const auto results = runner.run(plan);
    ASSERT_EQ(results.size(), 1u);
    const auto agg = runner.aggregate(plan, results);

    // No NaNs anywhere; the CI collapses to a zero-width interval at the
    // single observed value instead of blowing up.
    for (const char* key : {"true_frequency", "est_frequency", "true_duration_s",
                            "est_duration_s", "offered_load"}) {
        SCOPED_TRACE(key);
        const auto s = agg.stat(key);
        ASSERT_TRUE(s.has_value());
        EXPECT_TRUE(std::isfinite(s->mean));
        EXPECT_EQ(s->stddev, 0.0);
        ASSERT_TRUE(s->ci.valid);
        EXPECT_EQ(s->ci.lo, s->mean);
        EXPECT_EQ(s->ci.hi, s->mean);
        EXPECT_EQ(s->ci.std_error, 0.0);
    }
    EXPECT_EQ(agg.stat("est_frequency")->mean, results[0].result.frequency.value);
}

TEST(ReplicaRunner, ZeroReplicasYieldEmptyButFiniteAggregate) {
    const auto plan = short_cbr_plan();
    const ReplicaRunner runner{runner_config(0, 4)};
    const auto results = runner.run(plan);
    EXPECT_TRUE(results.empty());
    const auto agg = runner.aggregate(plan, results);
    // No replica has a value, so no metric has a stat (null in a document).
    for (const Metric& m : metrics()) EXPECT_FALSE(agg.stat(m.key).has_value()) << m.key;
}

// The replica aggregate document is the sweep engine's per-cell result.
TEST(ReplicaRunner, CellResultJsonContainsAggregateAndReplicas) {
    const auto plan = short_cbr_plan();
    const ReplicaRunner runner{runner_config(2, 2)};
    const auto results = runner.run(plan);
    const auto agg = runner.aggregate(plan, results);
    SweepCell cell;
    cell.config_hash = "0123456789abcdef";
    cell.spec.name = "unit";
    const auto doc = cell_result_json(cell, agg, results, plan.spec.badabing.slot_width);
    EXPECT_NE(doc.find("\"name\": \"unit\""), std::string::npos);
    EXPECT_NE(doc.find("\"est_frequency\""), std::string::npos);
    EXPECT_NE(doc.find("\"replicas\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"replica\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"upstream_drops\": 0"), std::string::npos);
    EXPECT_NE(doc.find("\"pair_asymmetry\""), std::string::npos);
    EXPECT_EQ(doc.find("nan"), std::string::npos);
    const JsonParse parsed = json_parse(doc, "<cell>");
    ASSERT_TRUE(parsed.ok) << parsed.error;
}

}  // namespace
}  // namespace bb::scenarios

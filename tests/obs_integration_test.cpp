// End-to-end checks that the obs counters wired through sim/probes/scenarios
// agree exactly with the quantities the run itself reports: instrumentation
// that cannot drift from the results it describes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/control.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenarios/replica_runner.h"

namespace bb::scenarios {
namespace {

ReplicaPlan short_cbr_plan() {
    ReplicaPlan plan;
    plan.spec.workload.kind = TrafficKind::cbr_uniform;
    plan.spec.workload.duration = seconds_i(8);
    plan.spec.workload.seed = 7;
    plan.spec.workload.episode_duration = milliseconds(68);
    plan.spec.workload.mean_episode_gap = seconds_i(2);
    plan.spec.badabing.p = 0.3;
    plan.spec.badabing.total_slots = 0;
    return plan;
}

TEST(ObsIntegration, CountersMatchRunSummaryExactly) {
    obs::set_enabled(true);
    obs::Counter& scored = obs::counter("core.reports_scored");
    obs::Counter& drops = obs::counter("sim.queue.drops");
    obs::Counter& probes_sent = obs::counter("probes.badabing.probes_sent");
    const std::uint64_t scored0 = scored.value();
    const std::uint64_t drops0 = drops.value();
    const std::uint64_t probes0 = probes_sent.value();

    ReplicaRunner::Config cfg;
    cfg.replicas = 3;
    cfg.threads = 2;
    cfg.master_seed = 7;
    const ReplicaRunner runner{cfg};
    const auto plan = short_cbr_plan();
    const auto results = runner.run(plan);
    ASSERT_EQ(results.size(), 3u);

    std::uint64_t want_experiments = 0;
    std::uint64_t want_drops = 0;
    std::uint64_t want_probes = 0;
    for (const auto& r : results) {
        want_experiments += r.result.experiments;
        want_drops += r.queue_drops;
        want_probes += r.result.probes_sent;
        EXPECT_GT(r.result.experiments, 0u);
    }
    // Loss episodes are engineered into the CBR workload, so drops happen.
    EXPECT_GT(want_drops, 0u);

    // analyze() feeds every designed experiment through StreamingAnalyzer
    // exactly once, and each queue drop increments sim.queue.drops exactly
    // once — so the counter deltas match the run's own summary.
    EXPECT_EQ(scored.value() - scored0, want_experiments);
    EXPECT_EQ(drops.value() - drops0, want_drops);
    EXPECT_EQ(probes_sent.value() - probes0, want_probes);
}

TEST(ObsIntegration, TraceCapturesPerReplicaSpans) {
    obs::set_enabled(true);
    obs::Trace::start();

    ReplicaRunner::Config cfg;
    cfg.replicas = 2;
    cfg.threads = 2;
    cfg.master_seed = 7;
    const ReplicaRunner runner{cfg};
    const auto plan = short_cbr_plan();
    const auto results = runner.run(plan);
    (void)runner.aggregate(plan, results);

    // One "replica" span per replica, plus nested experiment.run /
    // badabing.analyze spans and the aggregate span.
    EXPECT_GE(obs::Trace::buffered_events(), 2u + 2u * 2u + 1u);

    const std::string path = "obs_integration_trace.json";
    ASSERT_TRUE(obs::Trace::write(path));
    std::string doc;
    {
        std::FILE* f = std::fopen(path.c_str(), "r");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, n);
        std::fclose(f);
    }
    std::remove(path.c_str());

    EXPECT_NE(doc.find("\"name\":\"replica\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"experiment.run\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"badabing.analyze\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"aggregate\""), std::string::npos);
    EXPECT_NE(doc.find("\"args\":{\"replica\":0}"), std::string::npos);
    EXPECT_NE(doc.find("\"args\":{\"replica\":1}"), std::string::npos);
}

TEST(ObsIntegration, KillSwitchFreezesCountersWithoutChangingResults) {
    obs::set_enabled(true);
    ReplicaRunner::Config cfg;
    cfg.replicas = 1;
    cfg.threads = 1;
    cfg.master_seed = 7;
    const ReplicaRunner runner{cfg};
    const auto plan = short_cbr_plan();

    const auto on_results = runner.run(plan);

    obs::Counter& scored = obs::counter("core.reports_scored");
    const std::uint64_t before = scored.value();
    obs::set_enabled(false);
    const auto off_results = runner.run(plan);
    EXPECT_EQ(scored.value(), before);  // nothing counted while disabled
    obs::set_enabled(true);

    // The kill switch is pure observation: results are bit-identical.
    ASSERT_EQ(on_results.size(), off_results.size());
    EXPECT_EQ(on_results[0].result.counts.basic, off_results[0].result.counts.basic);
    EXPECT_EQ(on_results[0].result.frequency.value, off_results[0].result.frequency.value);
    EXPECT_EQ(on_results[0].queue_drops, off_results[0].queue_drops);
}

}  // namespace
}  // namespace bb::scenarios

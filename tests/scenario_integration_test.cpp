// End-to-end integration tests: full scenarios with ground truth and tools,
// shortened versions of the paper's experiments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/episode_match.h"
#include "measure/episodes.h"
#include "scenarios/experiment.h"
#include "scenarios/spec.h"

namespace bb::scenarios {
namespace {

TestbedConfig fast_testbed() {
    TestbedConfig cfg;
    cfg.bottleneck_rate_bps = 10'000'000;
    return cfg;
}

TEST(ScenarioIntegration, CbrUniformTruthMatchesConstruction) {
    WorkloadConfig wl;
    wl.kind = TrafficKind::cbr_uniform;
    wl.duration = seconds_i(120);
    wl.seed = 1;
    wl.episode_duration = milliseconds(68);
    wl.mean_episode_gap = seconds_i(10);
    Experiment exp{fast_testbed(), wl};
    exp.run();
    const auto t = exp.truth();
    ASSERT_GT(t.episodes, 5u);
    // Episode duration is the engineered quantity: tight check.
    EXPECT_NEAR(t.mean_duration_s, 0.068, 0.01);
    EXPECT_LT(t.sd_duration_s, 0.01);
    // Frequency depends on the (exponential) burst count drawn for the seed:
    // loose check around duration / gap = 0.0069.
    EXPECT_GT(t.frequency, 0.002);
    EXPECT_LT(t.frequency, 0.03);
}

TEST(ScenarioIntegration, CbrMultiDurationEpisodesSpanConfiguredRange) {
    WorkloadConfig wl;
    wl.kind = TrafficKind::cbr_multi;
    wl.duration = seconds_i(180);
    wl.seed = 2;
    wl.episode_durations = {milliseconds(50), milliseconds(100), milliseconds(150)};
    wl.mean_episode_gap = seconds_i(8);
    Experiment exp{fast_testbed(), wl};
    exp.run();
    const auto eps = exp.episodes();
    ASSERT_GT(eps.size(), 8u);
    double min_d = 1e9;
    double max_d = 0.0;
    for (const auto& e : eps) {
        min_d = std::min(min_d, e.duration().to_seconds());
        max_d = std::max(max_d, e.duration().to_seconds());
    }
    EXPECT_LT(min_d, 0.08) << "some short (~50 ms) episodes expected";
    EXPECT_GT(max_d, 0.10) << "some long (~150 ms) episodes expected";
}

TEST(ScenarioIntegration, InfiniteTcpProducesPeriodicLossEpisodes) {
    WorkloadConfig wl;
    wl.kind = TrafficKind::infinite_tcp;
    wl.duration = seconds_i(120);
    wl.seed = 3;
    wl.tcp_flows = 20;
    Experiment exp{fast_testbed(), wl};
    exp.run();
    const auto t = exp.truth();
    EXPECT_GT(t.episodes, 3u) << "synchronized AIMD should overflow repeatedly";
    EXPECT_GT(t.frequency, 0.001);
    EXPECT_LT(t.frequency, 0.5);
    // Goodput sanity: the flows should keep the 10 Mb/s link busy.
    const auto& q = exp.testbed().bottleneck();
    const double util =
        static_cast<double>(q.departed_bytes()) * 8.0 / (10e6 * 122.0);
    EXPECT_GT(util, 0.5);
}

TEST(ScenarioIntegration, WebTrafficProducesBurstyEpisodes) {
    WorkloadConfig wl;
    wl.kind = TrafficKind::web;
    wl.duration = seconds_i(120);
    wl.seed = 4;
    wl.web_session_rate_per_s = 3.0;
    TruthConfig tc;
    tc.delay_based = true;
    Experiment exp{fast_testbed(), wl, tc};
    exp.run();
    const auto t = exp.truth();
    EXPECT_GT(t.episodes, 0u);
    EXPECT_GT(exp.monitor().drops_total(), 0u);
}

TEST(ScenarioIntegration, ZingUnderestimatesTcpLossEpisodes) {
    // The paper's central Table 1 observation, in miniature: under reactive
    // TCP traffic, Poisson probes almost never see drops, so ZING's loss
    // frequency is far below the episode frequency.
    WorkloadConfig wl;
    wl.kind = TrafficKind::infinite_tcp;
    wl.duration = seconds_i(120);
    wl.seed = 5;
    wl.tcp_flows = 20;
    Experiment exp{fast_testbed(), wl};
    probes::ZingProber::Config zc;
    zc.mean_interval = milliseconds(100);
    auto& zing = exp.add_zing(zc);
    exp.run();
    const auto truth = exp.truth();
    const auto res = zing.result();
    ASSERT_GT(truth.frequency, 0.0);
    EXPECT_LT(res.loss_frequency, truth.frequency)
        << "ZING should underestimate episode frequency";
}

TEST(ScenarioIntegration, DefaultMarkingFollowsPaperRules) {
    WorkloadConfig wl;
    wl.duration = seconds_i(10);
    Experiment exp{fast_testbed(), wl};
    const auto m01 = exp.default_marking(0.1);
    const auto m05 = exp.default_marking(0.5);
    const auto m09 = exp.default_marking(0.9);
    EXPECT_DOUBLE_EQ(m01.alpha, 0.2);
    EXPECT_DOUBLE_EQ(m05.alpha, 0.1);
    EXPECT_DOUBLE_EQ(m09.alpha, 0.5);
    // tau = (1/p + sqrt(1-p)/p) slots of 5 ms.
    EXPECT_GT(m01.tau, m05.tau);
    EXPECT_GT(m05.tau, m09.tau);
    EXPECT_NEAR(m01.tau.to_millis(), (10.0 + std::sqrt(0.9) * 10.0) * 5.0, 0.1);
}

TEST(ScenarioIntegration, TruthIsDeterministicForSeed) {
    const auto run = [] {
        WorkloadConfig wl;
        wl.kind = TrafficKind::cbr_uniform;
        wl.duration = seconds_i(60);
        wl.seed = 99;
        Experiment exp{fast_testbed(), wl};
        exp.run();
        return exp.truth();
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.episodes, b.episodes);
    EXPECT_DOUBLE_EQ(a.frequency, b.frequency);
    EXPECT_DOUBLE_EQ(a.mean_duration_s, b.mean_duration_s);
}

// §6.1's marking rules on the 900 s CBR scenario at p = 0.3 (seed 7): the
// loss-only rule against the loss + (tau, alpha) one-way-delay rule, at the
// aggregate level (D̂ against the truth) and the episode level (recall,
// precision and onset error of the marks against the true episodes).  The
// delay rule fills episode interiors, so D̂ moves from well under the truth
// to over it, and onsets sharpen at a cost in precision.  It does not raise
// recall: loss marks alone already find all but one episode in a hundred.
TEST(ScenarioIntegration, Section61DelayRuleSharpensOnsetsAtAPrecisionCost) {
    const SpecResult parsed = load_scenario_spec_text(
        R"({"traffic": {"kind": "cbr_uniform", "duration_s": 900, "episode_ms": 68,
                        "mean_episode_gap_s": 10},
            "probe": {"badabing": {"p": 0.3}}})",
        "section61");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const BuiltExperiment built = build_experiment(parsed.spec);
    Experiment& exp = *built.experiment;
    exp.run();
    const probes::BadabingTool& tool = *built.badabing;
    const measure::TruthSummary truth = exp.truth();
    const auto intervals =
        measure::episode_slot_intervals(exp.episodes(), tool.slot_width(), TimeNs::zero());

    struct Scored {
        double duration_s;
        core::EpisodeMatchReport match;
    };
    const auto score = [&](bool delay_rule) {
        core::MarkingConfig marking = marking_for(parsed.spec);
        marking.use_delay_rule = delay_rule;
        const auto res = tool.analyze(marking);
        EXPECT_TRUE(res.duration_basic.valid);
        core::CongestionMarker marker{marking};
        return Scored{res.duration_basic.seconds(tool.slot_width()),
                      core::match_episodes(marker.mark(tool.outcomes()), intervals)};
    };
    const Scored loss_only = score(false);
    const Scored full = score(true);

    EXPECT_NEAR(truth.mean_duration_s, 0.074, 0.0005);
    EXPECT_NEAR(loss_only.duration_s, 0.030, 0.0005);
    EXPECT_NEAR(full.duration_s, 0.112, 0.0005);
    EXPECT_LT(loss_only.duration_s, truth.mean_duration_s);
    EXPECT_GT(full.duration_s, truth.mean_duration_s);

    EXPECT_NEAR(loss_only.match.mean_onset_error_slots, 2.91, 0.005);
    EXPECT_NEAR(full.match.mean_onset_error_slots, 2.18, 0.005);
    EXPECT_NEAR(loss_only.match.precision, 1.00, 0.005);
    EXPECT_NEAR(full.match.precision, 0.86, 0.005);

    EXPECT_NEAR(loss_only.match.recall, 0.99, 0.005);
    EXPECT_EQ(full.match.recall, loss_only.match.recall);
    EXPECT_EQ(full.match.probed_recall, 1.0);
    EXPECT_EQ(loss_only.match.probed_recall, 1.0);
}

}  // namespace
}  // namespace bb::scenarios

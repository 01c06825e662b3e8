// Scenario-DSL tests: defaulting, every config layer's validation (one-line
// file:line:key diagnostics), the truth-knob conflict, unknown-key rejection,
// and the build_* factories.
#include <gtest/gtest.h>

#include <string>

#include "scenarios/spec.h"

namespace bb::scenarios {
namespace {

SpecResult parse(const std::string& text) {
    return load_scenario_spec_text(text, "spec.json");
}

// --- defaults ----------------------------------------------------------------

TEST(SpecDefaults, EmptyDocumentYieldsPaperDefaults) {
    const auto r = parse("{}");
    ASSERT_TRUE(r.ok) << r.error;
    const ScenarioSpec& s = r.spec;
    EXPECT_EQ(s.topology, ScenarioSpec::Topology::dumbbell);
    EXPECT_EQ(s.testbed.bottleneck_rate_bps, 30'000'000);
    EXPECT_EQ(s.testbed.prop_delay, milliseconds(50));
    EXPECT_EQ(s.testbed.buffer_time, milliseconds(100));
    EXPECT_EQ(s.testbed.discipline, QueueDiscipline::drop_tail);
    EXPECT_FALSE(s.testbed.ge_enabled);
    EXPECT_EQ(s.workload.kind, TrafficKind::cbr_uniform);
    EXPECT_EQ(s.workload.duration, seconds_i(900));
    EXPECT_EQ(s.tool, ScenarioSpec::ProbeTool::badabing);
    EXPECT_DOUBLE_EQ(s.badabing.p, 0.3);
    // DSL default: the probe design is sized to the workload window, unlike
    // the struct default's fixed 900 s design.
    EXPECT_EQ(s.badabing.total_slots, 0);
    EXPECT_EQ(s.replicas, 1u);
    EXPECT_EQ(s.seed, 7u);
    // The run seed is threaded into the workload.
    EXPECT_EQ(s.workload.seed, 7u);
    EXPECT_FALSE(s.marking_alpha.has_value());
    EXPECT_FALSE(s.marking_tau.has_value());
}

TEST(SpecDefaults, NameDefaultsAndOverrides) {
    EXPECT_EQ(parse("{}").spec.name, "scenario");
    EXPECT_EQ(parse(R"({"name": "table4"})").spec.name, "table4");
}

TEST(SpecParse, FullDocumentRoundTrip) {
    const auto r = parse(R"({
      "topology": "dumbbell",
      "link": {
        "rate_mbps": 20, "delay_ms": 40, "buffer_ms": 80,
        "discipline": "red",
        "red": {"min_threshold": 0.2, "max_threshold": 0.8},
        "qbit_block": 100,
        "ge": {"enabled": true, "p_bad_loss": 0.4, "mean_good_s": 5, "mean_bad_ms": 50}
      },
      "traffic": {"kind": "infinite_tcp", "duration_s": 120, "tcp_flows": 12},
      "probe": {"tool": "badabing",
                "badabing": {"p": 0.5, "improved": true, "packets_per_probe": 4}},
      "truth": {"slot_ms": 10, "episode_gap_ms": 200},
      "analysis": {"alpha": 0.1, "tau_ms": 80},
      "run": {"replicas": 4, "threads": 2, "seed": 99}
    })");
    ASSERT_TRUE(r.ok) << r.error;
    const ScenarioSpec& s = r.spec;
    EXPECT_EQ(s.testbed.bottleneck_rate_bps, 20'000'000);
    EXPECT_EQ(s.testbed.prop_delay, milliseconds(40));
    EXPECT_EQ(s.testbed.discipline, QueueDiscipline::red);
    EXPECT_DOUBLE_EQ(s.testbed.red.min_threshold, 0.2);
    EXPECT_EQ(s.testbed.qbit_block, 100u);
    EXPECT_TRUE(s.testbed.ge_enabled);
    EXPECT_DOUBLE_EQ(s.testbed.ge.p_bad_loss, 0.4);
    EXPECT_EQ(s.testbed.ge.mean_bad, milliseconds(50));
    EXPECT_EQ(s.workload.kind, TrafficKind::infinite_tcp);
    EXPECT_EQ(s.workload.duration, seconds_i(120));
    EXPECT_EQ(s.workload.tcp_flows, 12);
    EXPECT_DOUBLE_EQ(s.badabing.p, 0.5);
    EXPECT_TRUE(s.badabing.improved);
    EXPECT_EQ(s.badabing.packets_per_probe, 4);
    EXPECT_EQ(s.truth.slot_width, milliseconds(10));
    EXPECT_EQ(s.truth.episode_gap, milliseconds(200));
    ASSERT_TRUE(s.marking_alpha.has_value());
    EXPECT_DOUBLE_EQ(*s.marking_alpha, 0.1);
    ASSERT_TRUE(s.marking_tau.has_value());
    EXPECT_EQ(*s.marking_tau, milliseconds(80));
    EXPECT_EQ(s.replicas, 4u);
    EXPECT_EQ(s.threads, 2u);
    EXPECT_EQ(s.seed, 99u);
    EXPECT_EQ(s.workload.seed, 99u);
}

// --- error paths -------------------------------------------------------------

void expect_error(const std::string& text, const std::string& fragment) {
    const auto r = parse(text);
    ASSERT_FALSE(r.ok) << "expected rejection of " << text;
    EXPECT_NE(r.error.find("spec.json:"), std::string::npos)
        << "diagnostic lacks file:line: " << r.error;
    EXPECT_NE(r.error.find(fragment), std::string::npos)
        << "diagnostic \"" << r.error << "\" lacks \"" << fragment << "\"";
}

TEST(SpecErrors, MalformedJson) {
    const auto r = parse("{\"link\": {\"rate_mbps\": 20,}}");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("spec.json:1:"), std::string::npos) << r.error;
}

TEST(SpecErrors, UnknownKeysNameTheKeyAndLine) {
    expect_error("{\n  \"link\": {\n    \"rate_mbits\": 20\n  }\n}",
                 "unknown key \"rate_mbits\"");
    expect_error(R"({"probes": {}})", "unknown key \"probes\"");
    const auto r = parse("{\n  \"link\": {\n    \"rate_mbits\": 20\n  }\n}");
    EXPECT_NE(r.error.find("spec.json:3:"), std::string::npos) << r.error;
}

TEST(SpecErrors, TopLevelDiagnosticsHaveNoEmptyKeyPath) {
    EXPECT_EQ(parse(R"({"bogus": 1})").error, "spec.json:1: unknown key \"bogus\"");
    EXPECT_EQ(parse("{\n  \"base\": {},\n  \"axes\": {}\n}").error,
              "spec.json:2: this is a sweep spec (it has a \"base\" section); run it "
              "with bb_sweep run");
}

TEST(SpecErrors, OutOfRangeLinkParams) {
    expect_error(R"({"link": {"rate_mbps": 0}})", "link.rate_mbps");
    expect_error(R"({"link": {"rate_mbps": -3}})", "link.rate_mbps");
    expect_error(R"({"link": {"buffer_ms": 0}})", "link.buffer_ms");
    expect_error(R"({"link": {"extra_hops": 17}})", "link.extra_hops");
    expect_error(R"({"link": {"discipline": "fq_codel"}})", "must be one of");
    expect_error(R"({"link": {"red": {"min_threshold": 0.9, "max_threshold": 0.2}}})",
                 "min_threshold");
}

TEST(SpecErrors, TypeMismatchesNameTheKey) {
    expect_error(R"({"link": {"rate_mbps": "fast"}})", "must be a number");
    expect_error(R"({"traffic": {"tcp_flows": 2.5}})", "must be an integer");
    expect_error(R"({"link": {"ge": {"enabled": 1}}})", "must be true or false");
    expect_error(R"({"traffic": "tcp"})", "must be an object");
}

TEST(SpecErrors, ProbeAndTrafficRanges) {
    expect_error(R"({"probe": {"badabing": {"p": 0}}})", "badabing.p");
    expect_error(R"({"probe": {"badabing": {"p": 1.5}}})", "badabing.p");
    expect_error(R"({"probe": {"badabing": {"packets_per_probe": 0}}})",
                 "packets_per_probe");
    expect_error(R"({"probe": {"tool": "owamp"}})", "must be one of");
    expect_error(R"({"traffic": {"kind": "voip"}})", "must be one of");
    expect_error(R"({"traffic": {"duration_s": 0}})", "duration_s");
    expect_error(R"({"traffic": {"cbr_background_load": 1.5}})", "cbr_background_load");
}

TEST(SpecErrors, ProbeTrainMustEndWithinItsSlot) {
    // (3 - 1) x 2500 us reaches the 5 ms slot: the next probe could start
    // before this one's last packet left.
    const auto r = parse("{\"probe\": {\n  \"badabing\": {\"packets_per_probe\": 3,\n"
                         "    \"intra_probe_gap_us\": 2500}}}");
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error,
              "spec.json:2: probe.badabing.intra_probe_gap_us: (packets_per_probe - 1) x "
              "intra_probe_gap_us must be shorter than slot_ms");
    expect_error(R"({"probe": {"badabing": {"packets_per_probe": 2, "intra_probe_gap_us": 5000}}})",
                 "shorter than slot_ms");
    expect_error(R"({"probe": {"badabing": {"slot_ms": 1, "intra_probe_gap_us": 500}}})",
                 "shorter than slot_ms");
    const auto ok = parse(R"({"probe": {"badabing": {"packets_per_probe": 3,
                                                     "intra_probe_gap_us": 2499}}})");
    EXPECT_TRUE(ok.ok) << ok.error;
    const auto single = parse(R"({"probe": {"badabing": {"packets_per_probe": 1,
                                                         "intra_probe_gap_us": 9000}}})");
    EXPECT_TRUE(single.ok) << single.error;
}

TEST(SpecErrors, TruthKnobConflict) {
    expect_error(R"({"truth": {"delay_based": true, "bounded_memory": true}})",
                 "unknown key \"bounded_memory\"");
}

TEST(SpecErrors, DelayFloorRequiresDelayBasedTruth) {
    const auto r = parse("{\"truth\": {\n  \"delay_floor_ms\": 80}}");
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, "spec.json:2: truth.delay_floor_ms: requires \"delay_based\": true");
    expect_error(R"({"truth": {"delay_based": false, "delay_floor_ms": 90}})",
                 "truth.delay_floor_ms: requires \"delay_based\": true");
    const auto ok = parse(R"({"truth": {"delay_floor_ms": 80, "delay_based": true}})");
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.spec.truth.delay_floor, milliseconds(80));
}

TEST(SpecErrors, Figure3SectionRequiresFigure3Topology) {
    expect_error(R"({"figure3": {"oc12_factor": 4}})",
                 "requires \"topology\": \"figure3\"");
    const auto ok = parse(R"({"topology": "figure3", "figure3": {"oc12_factor": 8}})");
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.spec.figure3.oc12_factor, 8);
}

TEST(SpecErrors, FirstErrorWins) {
    const auto r = parse("{\n  \"link\": {\"rate_mbps\": 0},\n"
                         "  \"traffic\": {\"duration_s\": 0}\n}");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("rate_mbps"), std::string::npos) << r.error;
    EXPECT_EQ(r.error.find("duration_s"), std::string::npos) << r.error;
}

// --- factories ---------------------------------------------------------------

TEST(SpecFactory, BuildTestbedHonoursSpec) {
    const auto r = parse(R"({"link": {"rate_mbps": 20, "discipline": "red"}})");
    ASSERT_TRUE(r.ok) << r.error;
    const auto tb = build_testbed(r.spec);
    ASSERT_NE(tb, nullptr);
    EXPECT_EQ(tb->config().bottleneck_rate_bps, 20'000'000);
    EXPECT_EQ(tb->config().discipline, QueueDiscipline::red);
}

TEST(SpecFactory, ReplicaPlanCarriesProbeAndEstimator) {
    const auto r = parse(R"({
      "probe": {"badabing": {"p": 0.5, "improved": true}},
      "analysis": {"frequency_from_extended": false},
      "run": {"replicas": 3, "threads": 2, "seed": 11}
    })");
    ASSERT_TRUE(r.ok) << r.error;
    const ReplicaPlan plan = replica_plan_from(r.spec);
    EXPECT_DOUBLE_EQ(plan.probe.p, 0.5);
    EXPECT_TRUE(plan.probe.improved);
    EXPECT_EQ(plan.probe.total_slots, 0);
    EXPECT_FALSE(plan.analysis.estimator.frequency_from_extended);
    EXPECT_FALSE(plan.analysis.marking.has_value());
    const ReplicaRunner::Config rc = runner_config_from(r.spec);
    EXPECT_EQ(rc.replicas, 3u);
    EXPECT_EQ(rc.threads, 2u);
    EXPECT_EQ(rc.master_seed, 11u);
}

TEST(SpecFactory, ExplicitMarkingFlowsThrough) {
    const auto r = parse(R"({"analysis": {"alpha": 0.2, "tau_ms": 40}})");
    ASSERT_TRUE(r.ok) << r.error;
    const auto marking = marking_for(r.spec);
    EXPECT_DOUBLE_EQ(marking.alpha, 0.2);
    EXPECT_EQ(marking.tau, milliseconds(40));
    const ReplicaPlan plan = replica_plan_from(r.spec);
    ASSERT_TRUE(plan.analysis.marking.has_value());
    EXPECT_DOUBLE_EQ(plan.analysis.marking->alpha, 0.2);
}

}  // namespace
}  // namespace bb::scenarios

// Spec-driven golden test: the Table 4/5/6-shaped runs and the Figure 9
// sensitivity sweep rebuilt purely from scenario-DSL documents must be
// bit-identical to the hand-wired pipeline (the pinned constants are shared
// with golden_droptail_test.cpp — regenerate there, paste in both).
//
// This is the refactor's load-bearing guarantee: build_experiment(spec) is a
// pure re-expression of the hand-wired wiring, so a config file drives the
// exact same simulation as C++ code did.
//
// The examples/ spec files are additionally parsed (and, where cheap,
// expanded) to keep the shipped configs loadable, and the shipped paper
// Table 1-6 specs are run shortened and pinned to the numbers the
// hand-wired table benches they replaced printed for the same durations.
// The AQM ablation matrix is run as shipped and pinned, cell by cell, to what
// the hand-written ablation bench it replaced printed.
// The Fig 9 and Table 7 re-analysis sweeps are pinned, shortened, to what
// bb sweep printed for them before cells could share a simulation, and are
// run both grouped and one cell at a time to show that sharing changes no
// byte of any cell.
// Regenerating those constants (only after an *intentional* behaviour change):
//   BB_GOLDEN_PRINT=1 ./build/tests/spec_golden_test --gtest_filter='*Shipped*'
// and paste the printed blocks below.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_hasher.h"
#include "scenarios/spec.h"
#include "scenarios/sweep.h"

namespace bb::scenarios {
namespace {

struct GoldenRow {
    double truth_freq{0.0};
    double truth_dur_s{0.0};
    std::uint64_t truth_episodes{0};
    std::uint64_t truth_drops{0};
    double est_freq{0.0};
    double est_dur_s{0.0};
    std::uint64_t probes_sent{0};
    std::uint64_t packets_lost{0};
};

// Pinned by golden_droptail_test.cpp (BB_GOLDEN_PRINT=1 regenerates there).
const GoldenRow kTable4{0.015416666666666667, 0.087589871100000022, 20u, 3638u,
                        0.016409400639688501, 0.11699999999999999, 12183u, 349u};
const GoldenRow kTable5{0.020125000000000001, 0.1146963324, 20u, 4740u,
                        0.021554721179251841, 0.17166666666666669, 12183u, 482u};
const GoldenRow kTable6{0.010125, 0.055873354100000008, 20u, 914u,
                        0.010985954665554165, 0.066666666666666666, 12183u, 111u};
const double kFig9[3] = {0.015479360852197071, 0.017310252996005325, 0.020223035952063914};

GoldenRow run_spec(const std::string& text) {
    const auto r = load_scenario_spec_text(text, "golden-spec");
    EXPECT_TRUE(r.ok) << r.error;
    BuiltExperiment built = build_experiment(r.spec);
    built.experiment->run();

    const auto truth = built.experiment->truth();
    const auto res = built.badabing->analyze(marking_for(r.spec), r.spec.estimator);
    GoldenRow row;
    row.truth_freq = truth.frequency;
    row.truth_dur_s = truth.mean_duration_s;
    row.truth_episodes = truth.episodes;
    row.truth_drops = truth.total_drops;
    row.est_freq = res.frequency.value;
    row.est_dur_s = res.duration_basic.valid
                        ? res.duration_basic.seconds(built.badabing->slot_width())
                        : 0.0;
    row.probes_sent = res.probes_sent;
    row.packets_lost = res.packets_lost;
    return row;
}

void expect_row(const GoldenRow& got, const GoldenRow& want) {
    // Bit-identical, not approximately equal: EXPECT_EQ on the doubles.
    EXPECT_EQ(got.truth_freq, want.truth_freq);
    EXPECT_EQ(got.truth_dur_s, want.truth_dur_s);
    EXPECT_EQ(got.truth_episodes, want.truth_episodes);
    EXPECT_EQ(got.truth_drops, want.truth_drops);
    EXPECT_EQ(got.est_freq, want.est_freq);
    EXPECT_EQ(got.est_dur_s, want.est_dur_s);
    EXPECT_EQ(got.probes_sent, want.probes_sent);
    EXPECT_EQ(got.packets_lost, want.packets_lost);
}

TEST(SpecGolden, Table4CbrUniformFromSpec) {
    expect_row(run_spec(R"({
      "link": {"rate_mbps": 20},
      "traffic": {"kind": "cbr_uniform", "duration_s": 120, "mean_episode_gap_s": 6},
      "probe": {"badabing": {"p": 0.3}},
      "run": {"seed": 42}
    })"),
               kTable4);
}

TEST(SpecGolden, Table5CbrMultiFromSpec) {
    expect_row(run_spec(R"({
      "link": {"rate_mbps": 20},
      "traffic": {"kind": "cbr_multi", "duration_s": 120, "mean_episode_gap_s": 6,
                  "episode_ms_list": [50, 100, 150]},
      "probe": {"badabing": {"p": 0.3}},
      "run": {"seed": 42}
    })"),
               kTable5);
}

TEST(SpecGolden, Table6WebFromSpec) {
    expect_row(run_spec(R"({
      "link": {"rate_mbps": 20},
      "traffic": {"kind": "web", "duration_s": 120, "mean_episode_gap_s": 6,
                  "web_session_rate_per_s": 3.3333333333333335},
      "probe": {"badabing": {"p": 0.3}},
      "truth": {"delay_based": true},
      "run": {"seed": 42}
    })"),
               kTable6);
}

TEST(SpecGolden, Fig9AlphaSweepFromSpecs) {
    // One spec-built run at p = 0.5, re-analyzed under marking configs that
    // each come from a spec's analysis section — pins the DSL's marking path.
    const auto base = load_scenario_spec_text(R"({
      "link": {"rate_mbps": 20},
      "traffic": {"kind": "cbr_uniform", "duration_s": 120, "mean_episode_gap_s": 6},
      "probe": {"badabing": {"p": 0.5}},
      "run": {"seed": 42}
    })",
                                              "fig9-spec");
    ASSERT_TRUE(base.ok) << base.error;
    BuiltExperiment built = build_experiment(base.spec);
    built.experiment->run();

    const char* alphas[3] = {"0.05", "0.1", "0.2"};
    for (int i = 0; i < 3; ++i) {
        const auto m = load_scenario_spec_text(
            std::string{R"({"analysis": {"alpha": )"} + alphas[i] + R"(, "tau_ms": 80}})",
            "fig9-marking");
        ASSERT_TRUE(m.ok) << m.error;
        EXPECT_EQ(built.badabing->analyze(marking_for(m.spec)).frequency.value, kFig9[i])
            << "alpha = " << alphas[i];
    }
}

// --- shipped example specs stay loadable -------------------------------------

#ifdef BB_EXAMPLES_DIR
TEST(SpecGolden, ShippedExampleSpecsParseAndExpand) {
    const std::string dir = BB_EXAMPLES_DIR;
    for (const char* name : {"table4.json", "table5.json", "table6.json",
                             "ablation_aqm_sweep.json", "ablation_multihop.json",
                             "sweep_smoke.json", "fig9.json", "table7.json"}) {
        const auto r = load_sweep_spec_file(dir + "/" + name);
        ASSERT_TRUE(r.ok) << name << ": " << r.error;
        const auto e = expand_sweep(r.sweep, name);
        ASSERT_TRUE(e.ok) << name << ": " << e.error;
        EXPECT_FALSE(e.cells.empty()) << name;
    }
    // The ZING tables are plain scenario specs, one per row.
    for (const char* name : {"table1.json", "table2.json", "table3.json", "table1_20hz.json",
                             "table2_20hz.json", "table3_20hz.json"}) {
        const auto r = load_scenario_spec_file(dir + "/" + name);
        ASSERT_TRUE(r.ok) << name << ": " << r.error;
        EXPECT_EQ(r.spec.tool, ScenarioSpec::ProbeTool::zing) << name;
    }
}

// A plain scenario spec (no "base") loads through the sweep loader as a
// one-cell sweep with no axes, named after its file stem: the path bb sweep
// takes for a single run.
TEST(SpecGolden, PlainSpecFileLoadsAsOneCellSweepNamedAfterItsStem) {
    const std::string path = std::string{BB_TEST_DATA_DIR} + "/cbr_multi_red.json";
    const auto r = load_sweep_spec_file(path);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.sweep.name, "cbr_multi_red");
    EXPECT_TRUE(r.sweep.axes.empty());
    const auto e = expand_sweep(r.sweep, path);
    ASSERT_TRUE(e.ok) << e.error;
    ASSERT_EQ(e.cells.size(), 1u);
    const auto plain = load_scenario_spec_file(path);
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_EQ(e.cells[0].spec.workload.kind, TrafficKind::cbr_multi);
    EXPECT_EQ(e.cells[0].spec.testbed.discipline, plain.spec.testbed.discipline);
    EXPECT_EQ(e.cells[0].spec.workload.duration, plain.spec.workload.duration);
}

TEST(SpecGolden, ShippedAblationSweepMatchesHistoricalCellOrder) {
    const auto r = load_sweep_spec_file(std::string{BB_EXAMPLES_DIR} +
                                        "/ablation_aqm_sweep.json");
    ASSERT_TRUE(r.ok) << r.error;
    const auto e = expand_sweep(r.sweep, "ablation_aqm_sweep.json");
    ASSERT_TRUE(e.ok) << e.error;
    ASSERT_EQ(e.cells.size(), 16u);
    // discipline outermost, traffic middle, ge innermost — the bench's
    // historical loop nesting.
    EXPECT_EQ(e.cells[0].spec.testbed.discipline, QueueDiscipline::drop_tail);
    EXPECT_EQ(e.cells[0].spec.workload.kind, TrafficKind::cbr_uniform);
    EXPECT_FALSE(e.cells[0].spec.testbed.ge_enabled);
    EXPECT_TRUE(e.cells[1].spec.testbed.ge_enabled);
    EXPECT_EQ(e.cells[2].spec.workload.kind, TrafficKind::infinite_tcp);
    EXPECT_EQ(e.cells[4].spec.testbed.discipline, QueueDiscipline::red);
    EXPECT_EQ(e.cells[15].spec.testbed.discipline, QueueDiscipline::codel);
    EXPECT_TRUE(e.cells[15].spec.testbed.ge_enabled);
}

// --- shipped paper-table specs, shortened ------------------------------------

bool golden_print() { return std::getenv("BB_GOLDEN_PRINT") != nullptr; }

// The shipped examples/<name> document with traffic.duration_s overridden.
JsonValue shipped_doc(const char* name, const char* duration_path, std::int64_t duration_s) {
    JsonParse parsed = json_parse_file(std::string{BB_EXAMPLES_DIR} + "/" + name);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    std::string err;
    EXPECT_TRUE(json_set_path(parsed.value, duration_path, JsonValue::of_int(duration_s), err))
        << err;
    return std::move(parsed.value);
}

// One p row of a BADABING table: mean, ci_lo, ci_hi of each aggregate stat.
struct GoldenStat {
    double mean{0.0};
    double lo{0.0};
    double hi{0.0};
};
struct GoldenTableRow {
    GoldenStat true_freq, est_freq, true_dur, est_dur, load;
};

GoldenStat golden_stat(const std::optional<AggregateStat>& s) {
    EXPECT_TRUE(s.has_value());
    const AggregateStat v = s.value_or(AggregateStat{});
    return {v.mean, v.ci.lo, v.ci.hi};
}

void expect_stat(const GoldenStat& got, const GoldenStat& want, const char* what, double p) {
    EXPECT_EQ(got.mean, want.mean) << what << " mean, p = " << p;
    EXPECT_EQ(got.lo, want.lo) << what << " ci_lo, p = " << p;
    EXPECT_EQ(got.hi, want.hi) << what << " ci_hi, p = " << p;
}

// Runs every p cell of examples/<name> (3 replicas, seed 7) at 20 s through
// the same ReplicaRunner path bb sweep uses, and compares (or prints) the
// aggregates.
void check_badabing_table(const char* name, const char* label,
                          const GoldenTableRow (&want)[5]) {
    auto sweep = parse_sweep_spec(shipped_doc(name, "base.traffic.duration_s", 20), name);
    ASSERT_TRUE(sweep.ok) << sweep.error;
    const auto grid = expand_sweep(sweep.sweep, name);
    ASSERT_TRUE(grid.ok) << grid.error;
    ASSERT_EQ(grid.cells.size(), 5u);
    if (golden_print()) std::printf("const GoldenTableRow %s[5] = {\n", label);
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        const ScenarioSpec& spec = grid.cells[i].spec;
        ReplicaRunner::Config rc = runner_config_from(spec);
        rc.threads = 2;  // aggregates are bit-identical at any thread count
        const ReplicaRunner runner{rc};
        const ReplicaPlan plan = replica_plan_from(spec);
        const AggregateRow agg = runner.aggregate(plan, runner.run(plan));
        const GoldenTableRow got{
            golden_stat(agg.stat("true_frequency")), golden_stat(agg.stat("est_frequency")),
            golden_stat(agg.stat("true_duration_s")), golden_stat(agg.stat("est_duration_s")),
            golden_stat(agg.stat("offered_load"))};
        if (golden_print()) {
            const char* sep = "    {";
            for (const GoldenStat* s :
                 {&got.true_freq, &got.est_freq, &got.true_dur, &got.est_dur, &got.load}) {
                std::printf("%s{%.17g, %.17g, %.17g}", sep, s->mean, s->lo, s->hi);
                sep = ",\n     ";
            }
            std::printf("},\n");
            continue;
        }
        const double p = spec.badabing.p;
        expect_stat(got.true_freq, want[i].true_freq, "true_frequency", p);
        expect_stat(got.est_freq, want[i].est_freq, "est_frequency", p);
        expect_stat(got.true_dur, want[i].true_dur, "true_duration_s", p);
        expect_stat(got.est_dur, want[i].est_dur, "est_duration_s", p);
        expect_stat(got.load, want[i].load, "offered_load", p);
    }
    if (golden_print()) std::printf("};\n");
}

// Pinned from the table4/5/6 bench programs (since deleted) run for 20
// simulated seconds (p = 0.1 .. 0.9).
const GoldenTableRow kShippedTable4[5] = {
    {{0.0087499999999999991, 0, 0.014999999999999999},
     {0.011914468320138871, 0, 0.025380710659898477},
     {0.046311111111111115, 0, 0.070000000000000007},
     {0, 0, 0},
     {0.017920000000000002, 0.017760000000000001, 0.018072000000000001}},
    {{0.0089999999999999993, 0, 0.0155},
     {0.010112073855301504, 0, 0.016038492381716118},
     {0.048511111111111123, 0, 0.073200000000000015},
     {0.083333333333333343, 0, 0.19500000000000001},
     {0.048936, 0.047399999999999998, 0.050616000000000001}},
    {{0.0092499999999999995, 0, 0.016},
     {0.011618077247260647, 0, 0.017570281124497992},
     {0.049941456194444449, 0, 0.075491035250000005},
     {0.082000000000000003, 0, 0.17500000000000002},
     {0.072000000000000008, 0.070872000000000004, 0.072623999999999994}},
    {{0.0094999999999999998, 0, 0.016500000000000001},
     {0.011405140104241868, 0, 0.01809794180269695},
     {0.05072223616666667, 0, 0.076166708500000013},
     {0.059583333333333335, 0, 0.115},
     {0.087383999999999989, 0.086999999999999994, 0.087623999999999994}},
    {{0.0094999999999999998, 0, 0.016500000000000001},
     {0.010359890239897742, 0, 0.018323153803442533},
     {0.050937440472222227, 0, 0.076466666666666669},
     {0.058500000000000003, 0, 0.093000000000000013},
     {0.095104000000000008, 0.095063999999999996, 0.095159999999999995}},
};
const GoldenTableRow kShippedTable5[5] = {
    {{0.011666666666666665, 0, 0.021499999999999998},
     {0.013606515697465436, 0, 0.030456852791878174},
     {0.062055555555555558, 0, 0.10190000000000002},
     {0.038333333333333337, 0, 0.115},
     {0.017920000000000002, 0.017760000000000001, 0.018072000000000001}},
    {{0.012083333333333333, 0, 0.021999999999999999},
     {0.013156779522887449, 0, 0.021026072329688814},
     {0.064315641111111113, 0, 0.10515000000000002},
     {0.11666666666666667, 0, 0.22500000000000001},
     {0.048936, 0.047399999999999998, 0.050616000000000001}},
    {{0.01225, 0, 0.022499999999999999},
     {0.014122663493480094, 0, 0.024096385542168676},
     {0.065669233972222227, 0, 0.10734103525000001},
     {0.10249999999999999, 0, 0.185},
     {0.072000000000000008, 0.070872000000000004, 0.072623999999999994}},
    {{0.012416666666666666, 0, 0.022749999999999999},
     {0.0137730871874964, 0, 0.024485450674237047},
     {0.066472222222222224, 0, 0.10815},
     {0.078666666666666663, 0, 0.14099999999999999},
     {0.087383999999999989, 0.086999999999999994, 0.087623999999999994}},
    {{0.012416666666666666, 0, 0.022749999999999999},
     {0.013227845625912515, 0, 0.024708495280399777},
     {0.066770759861111112, 0, 0.10837894625},
     {0.067083333333333328, 0, 0.11125},
     {0.095104000000000008, 0.095063999999999996, 0.095159999999999995}},
};
const GoldenTableRow kShippedTable6[5] = {
    {{0.0014166666666666668, 0.00040625000000000947, 0.0030000000000000001},
     {0.002538071065989848, 0, 0.0076142131979695434},
     {0.0218, 0, 0.056800000000000003},
     {0, 0, 0},
     {0.017920000000000002, 0.017760000000000001, 0.018072000000000001}},
    {{0.0042500000000000003, 0, 0.012749999999999999},
     {0.0017452006980802795, 0, 0.005235602094240838},
     {0.04049333333333334, 0, 0.12148},
     {0, 0, 0},
     {0.048936, 0.047399999999999998, 0.050616000000000001}},
    {{0.0061666666666666675, 0.0026812500000000625, 0.01025},
     {0.0043919069286523756, 0, 0.0066496163682864453},
     {0.11934367266666668, 0, 0.20000000000000001},
     {0.036666666666666667, 0, 0.065000000000000002},
     {0.072000000000000008, 0.070872000000000004, 0.072623999999999994}},
    {{0.00083333333333333328, 0, 0.0016874999999999813},
     {0.00095510983763132757, 0, 0.0028653295128939832},
     {0.0071866666666666676, 0, 0.021560000000000003},
     {0.013333333333333332, 0, 0.040000000000000001},
     {0.087383999999999989, 0.086999999999999994, 0.087623999999999994}},
    {{0.0017500000000000003, 0, 0.0035437499999999606},
     {0.0013865779256794233, 0, 0.0041597337770382693},
     {0.032960000000000003, 0, 0.09888000000000001},
     {0.0062500000000000003, 0, 0.018749999999999999},
     {0.095104000000000008, 0.095063999999999996, 0.095159999999999995}},
};

TEST(SpecGolden, ShippedTable4SpecMatchesTableBench) {
    check_badabing_table("table4.json", "kShippedTable4", kShippedTable4);
}

TEST(SpecGolden, ShippedTable5SpecMatchesTableBench) {
    check_badabing_table("table5.json", "kShippedTable5", kShippedTable5);
}

TEST(SpecGolden, ShippedTable6SpecMatchesTableBench) {
    check_badabing_table("table6.json", "kShippedTable6", kShippedTable6);
}

// --- shipped re-analysis sweeps (Fig 9, Table 7), shortened ------------------

// examples/fig9.json at 20 s per run.
JsonValue short_fig9() { return shipped_doc("fig9.json", "base.traffic.duration_s", 20); }

// examples/table7.json with its N axis scaled from {900, 3600} s to {20, 80} s.
// Axis paths contain dots, so the axis is edited in place, not by json_set_path.
JsonValue short_table7() {
    JsonParse parsed = json_parse_file(std::string{BB_EXAMPLES_DIR} + "/table7.json");
    EXPECT_TRUE(parsed.ok) << parsed.error;
    bool edited = false;
    for (auto& [key, axes] : parsed.value.members) {
        if (key != "axes") continue;
        for (auto& [path, values] : axes.members) {
            if (path != "traffic.duration_s") continue;
            values.items = {JsonValue::of_int(20), JsonValue::of_int(80)};
            edited = true;
        }
    }
    EXPECT_TRUE(edited);
    return std::move(parsed.value);
}

std::vector<SweepCell> expand_doc(const JsonValue& doc, const char* name) {
    const auto sweep = parse_sweep_spec(doc, name);
    EXPECT_TRUE(sweep.ok) << sweep.error;
    auto grid = expand_sweep(sweep.sweep, name);
    EXPECT_TRUE(grid.ok) << grid.error;
    return std::move(grid.cells);
}

SweepRunner::RunOutcome run_cells(const std::string& sweep_name,
                                  const std::vector<SweepCell>& cells,
                                  const std::string& out_dir) {
    SweepRunner::Config cfg;
    cfg.out_dir = out_dir;
    cfg.threads = 2;
    cfg.state_hash = true;
    SweepRunner runner{std::move(cfg)};
    return runner.run(sweep_name, cells);
}

GoldenStat cell_stat(const JsonValue& result, const std::string& stat) {
    const auto number = [&](const char* field) {
        const JsonValue* v = json_get_path(result, "aggregate." + stat + "." + field);
        EXPECT_TRUE(v != nullptr && v->is_number()) << stat << "." << field;
        return v != nullptr ? v->number_value : 0.0;
    };
    return {number("mean"), number("ci_lo"), number("ci_hi")};
}

// Captured from bb sweep <short spec> --state-hash before cells could
// share a simulation (same files, same shortening as below).
constexpr const char* kShortFig9StateHash = "a1886419ce48dca7";
const double kShortFig9EstFreq[45] = {
    // p = 0.1; alpha 0.05, 0.1, 0.2 outer; tau 20, 40, 80 ms inner
    0.00853037356548574, 0.009376397254149023, 0.009376397254149023,
    0.009376397254149023, 0.011068444631475587, 0.011068444631475587,
    0.009376397254149023, 0.011914468320138871, 0.011914468320138871,
    // p = 0.3
    0.008736414549390082, 0.009551378593176469, 0.009831726224238986,
    0.009551378593176469, 0.010646690268025375, 0.010927037899087891,
    0.010392421486364021, 0.012302697204999316, 0.012850353042423768,
    // p = 0.5
    0.010287570033219296, 0.010454906043928801, 0.010454906043928801,
    0.011785413257970152, 0.012120085279389162, 0.012120085279389162,
    0.013280529525509446, 0.01428181863255491, 0.01428181863255491,
    // p = 0.7
    0.010576028166589051, 0.010576028166589051, 0.010576028166589051,
    0.011880491966299332, 0.011999880696003247, 0.011999880696003247,
    0.013899085087474911, 0.014136761018503644, 0.014136761018503644,
    // p = 0.9
    0.010359787587450903, 0.010359787587450903, 0.010359787587450903,
    0.011562412328394622, 0.01165485085677325, 0.01165485085677325,
    0.013689935615358816, 0.014059792381320168, 0.014059792381320168,
};

constexpr const char* kShortTable7StateHash = "2a59fba908b29386";
// N = 20 s (tau 40, 80 ms), then N = 80 s (tau 40, 80 ms).
const GoldenTableRow kShortTable7[4] = {
    {{0.006649999999999999, 0.0014, 0.011263749999999987},
     {0.008626513504398593, 0.0014778325123152708, 0.017323043410155864},
     {0.04152666666666667, 0.013740000000000002, 0.06948000000000001},
     {0, 0, 0},
     {0.018355200000000002, 0.017889600000000002, 0.01896084}},
    {{0.006649999999999999, 0.0014, 0.011263749999999987},
     {0.008626513504398593, 0.0014778325123152708, 0.017323043410155864},
     {0.04152666666666667, 0.013740000000000002, 0.06948000000000001},
     {0, 0, 0},
     {0.018355200000000002, 0.017889600000000002, 0.01896084}},
    {{0.006925000000000001, 0.00545, 0.008400000000000001},
     {0.007721744055802527, 0.005802504040430392, 0.01024564063705536},
     {0.06944222222222222, 0.06903555555555557, 0.06981333333333334},
     {0.075, 0.011, 0.142},
     {0.0180888, 0.0176688, 0.0184776}},
    {{0.006925000000000001, 0.00545, 0.008400000000000001},
     {0.008468678143977514, 0.006785348646351009, 0.010851064872200637},
     {0.06944222222222222, 0.06903555555555557, 0.06981333333333334},
     {0.10500000000000001, 0.040999999999999995, 0.16302499999999998},
     {0.0180888, 0.0176688, 0.0184776}},
};

TEST(SpecGolden, ShippedFig9SpecMatchesSweepPins) {
    const auto cells = expand_doc(short_fig9(), "fig9.json");
    ASSERT_EQ(cells.size(), 45u);
    const auto run = run_cells("fig9", cells, "");
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.simulated, 5u);  // one per p; 9 (alpha, tau) analyses each
    if (golden_print()) {
        std::printf("constexpr const char* kShortFig9StateHash = \"%s\";\n",
                    core::RunHasher::hex(run.merged_state_hash).c_str());
        for (const auto& c : run.cells) {
            std::printf("    %.17g,\n", cell_stat(c.result, "est_frequency").mean);
        }
        return;
    }
    EXPECT_EQ(core::RunHasher::hex(run.merged_state_hash), kShortFig9StateHash);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cell_stat(run.cells[i].result, "est_frequency").mean, kShortFig9EstFreq[i])
            << "cell " << i;
    }
}

TEST(SpecGolden, ShippedTable7SpecMatchesSweepPins) {
    const auto cells = expand_doc(short_table7(), "table7.json");
    ASSERT_EQ(cells.size(), 4u);
    const auto run = run_cells("table7", cells, "");
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.simulated, 2u);  // one per N; tau 40 and 80 ms each
    static const char* const kStats[5] = {"true_frequency", "est_frequency",
                                          "true_duration_s", "est_duration_s", "offered_load"};
    if (golden_print()) {
        std::printf("constexpr const char* kShortTable7StateHash = \"%s\";\n",
                    core::RunHasher::hex(run.merged_state_hash).c_str());
        for (const auto& c : run.cells) {
            const char* sep = "    {";
            for (const char* stat : kStats) {
                const GoldenStat got = cell_stat(c.result, stat);
                std::printf("%s{%.17g, %.17g, %.17g}", sep, got.mean, got.lo, got.hi);
                sep = ",\n     ";
            }
            std::printf("},\n");
        }
        return;
    }
    EXPECT_EQ(core::RunHasher::hex(run.merged_state_hash), kShortTable7StateHash);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        const GoldenTableRow& want = kShortTable7[i];
        const GoldenStat* wanted[5] = {&want.true_freq, &want.est_freq, &want.true_dur,
                                       &want.est_dur, &want.load};
        for (std::size_t k = 0; k < 5; ++k) {
            expect_stat(cell_stat(run.cells[i].result, kStats[k]), *wanted[k], kStats[k],
                        cells[i].spec.badabing.p);
        }
    }
}

std::string slurp(const std::filesystem::path& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// Sharing a simulation must be invisible: the sweep run as one
// SweepRunner::run call (one simulation per group) and as one call per cell
// writes byte-identical cell files and carries equal per-cell and merged
// digests.
void expect_grouping_invisible(const char* name, const JsonValue& doc,
                               std::size_t groups) {
    namespace fs = std::filesystem;
    const fs::path root = fs::temp_directory_path() / ("bb_grouping_" + std::string{name});
    fs::remove_all(root);
    const auto cells = expand_doc(doc, name);
    const auto grouped = run_cells(name, cells, (root / "grouped").string());
    ASSERT_TRUE(grouped.ok) << grouped.error;
    EXPECT_EQ(grouped.simulated, groups);
    ASSERT_EQ(grouped.cells.size(), cells.size());

    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto single = run_cells(name, {cells[i]}, (root / "single").string());
        ASSERT_TRUE(single.ok) << single.error;
        EXPECT_EQ(single.simulated, 1u);
        EXPECT_EQ(single.cells.at(0).state_hash, grouped.cells[i].state_hash) << "cell " << i;
        digests.push_back(single.cells.at(0).state_hash);

        const std::string file = std::string{name} + "-" + cells[i].config_hash + ".json";
        const std::string want = slurp(root / "single" / file);
        EXPECT_FALSE(want.empty()) << file;
        EXPECT_EQ(slurp(root / "grouped" / file), want) << file;
    }
    EXPECT_EQ(core::RunHasher::merge(digests), grouped.merged_state_hash);
    fs::remove_all(root);
}

TEST(SpecGolden, ShippedFig9GroupedMatchesPerCellRuns) {
    expect_grouping_invisible("fig9", short_fig9(), 5);
}

TEST(SpecGolden, ShippedTable7GroupedMatchesPerCellRuns) {
    expect_grouping_invisible("table7", short_table7(), 2);
}

// --- shipped AQM ablation matrix, full length --------------------------------

// One cell of examples/ablation_aqm_sweep.json: its axis values and the
// replica's truth, estimates, path/passive loss and Q-bit merged blocks.
struct AblationPin {
    const char* discipline;
    const char* traffic;
    bool ge;
    double truth_freq;
    double est_freq;
    double truth_dur_s;
    double est_dur_s;
    std::uint64_t episodes;
    double path_loss_rate;
    double passive_loss_rate;
    std::uint64_t qbit_merged_blocks;
};

// What the hand-written bench/ablation_aqm program this spec replaced
// computed (captured at %.17g; its table printed them rounded), 120 s per
// cell, seed 7.
const AblationPin kShippedAblationAqm[16] = {
    {"drop_tail", "cbr_uniform", false,
     0.005875, 0.0072023725462505295, 0.072982907, 0.125, 9u,
     0.041321748648833548, 0.041369863013698632, 0u},
    {"drop_tail", "cbr_uniform", true,
     0.018333333333333333, 0.031492727015958198, 0.082929049520000006, 0.15857142857142859, 25u,
     0.04576862557296299, 0.045821917808219176, 0u},
    {"drop_tail", "infinite_tcp", false,
     0.054791666666666669, 0.058325095325518994, 0.12155769230769232, 0.094090909090909086, 52u,
     0.0041034933809136536, 0.0041083591331269346, 0u},
    {"drop_tail", "infinite_tcp", true,
     0.055708333333333332, 0.059313656263239659, 0.10293209677419356, 0.069918032786885242, 62u,
     0.011048771364915191, 0.011022135416666667, 2u},
    {"red", "cbr_uniform", false,
     0.016875000000000001, 0.01454596808360401, 0.24565466599999999, 0.025000000000000001, 8u,
     0.043853047821030305, 0.043904109589041097, 0u},
    {"red", "cbr_uniform", true,
     0.028916666666666667, 0.043073012286400224, 0.13876655533333335, 0.27772727272727277, 24u,
     0.048299924745159747, 0.048356164383561641, 0u},
    {"red", "infinite_tcp", false,
     0.15420833333333334, 0.048015816975003532, 0.25903675175714291, 0.041585365853658532, 70u,
     0.0039105206950205825, 0.0032804568527918781, 0u},
    {"red", "infinite_tcp", true,
     0.13629166666666667, 0.078802429035446972, 0.21568282371621622, 0.060376344086021508, 74u,
     0.010873962474715771, 0.010178134823611596, 0u},
    {"pie", "cbr_uniform", false,
     0.0065833333333333334, 0.0079084875017652878, 0.082324888777777785, 0.070000000000000007, 9u,
     0.041344553145880369, 0.041392694063926941, 0u},
    {"pie", "cbr_uniform", true,
     0.019041666666666665, 0.03191639598926705, 0.086292162960000016, 0.15033333333333335, 25u,
     0.045791430070009805, 0.045844748858447491, 0u},
    {"pie", "infinite_tcp", false,
     0.17266666666666666, 0.043214235277503177, 0.088712627307692332, 0.034772727272727275, 221u,
     0.0044185573144190273, 0.0044218113444061419, 0u},
    {"pie", "infinite_tcp", true,
     0.16325000000000001, 0.082050557830814858, 0.13013479219310345, 0.072499999999999995, 145u,
     0.0090413188270395701, 0.0090452261306532659, 0u},
    {"codel", "cbr_uniform", false,
     0.0089999999999999993, 0.0073435955373534808, 0.11527463866666668, 0.17166666666666669, 9u,
     0.041504184625208093, 0.041552511415525115, 0u},
    {"codel", "cbr_uniform", true,
     0.021125000000000001, 0.031492727015958198, 0.096470069919999998, 0.18583333333333332, 25u,
     0.045951061549337528, 0.046004566210045665, 0u},
    {"codel", "infinite_tcp", false,
     0.22466666666666665, 0.03346984889139952, 0.13224525252525263, 0.027941176470588233, 198u,
     0.0035970201527786979, 0.0035996210925165772, 0u},
    {"codel", "infinite_tcp", true,
     0.19920833333333332, 0.038695099562208728, 0.12937273743016764, 0.037567567567567572, 179u,
     0.0067491301380125527, 0.0067521652231845438, 0u},
};

TEST(SpecGolden, ShippedAblationAqmMatchesBenchGolden) {
    JsonParse parsed =
        json_parse_file(std::string{BB_EXAMPLES_DIR} + "/ablation_aqm_sweep.json");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto cells = expand_doc(parsed.value, "ablation_aqm_sweep.json");
    ASSERT_EQ(cells.size(), 16u);
    const auto run = run_cells("ablation_aqm", cells, "");
    ASSERT_TRUE(run.ok) << run.error;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const JsonValue& result = run.cells[i].result;
        const JsonValue* replicas = result.find("replicas");
        ASSERT_TRUE(replicas != nullptr && replicas->items.size() == 1u) << "cell " << i;
        const JsonValue& r = replicas->items[0];
        const auto number = [&](const char* key) {
            const JsonValue* v = r.find(key);
            EXPECT_TRUE(v != nullptr && v->is_number()) << key;
            return v != nullptr ? v->number_value : 0.0;
        };
        // Axis paths contain dots, so they are looked up as keys, not paths.
        const JsonValue* axes = result.find("axes");
        const auto axis = [&](const char* path) {
            const JsonValue* v = axes != nullptr ? axes->find(path) : nullptr;
            return v != nullptr ? v->string_value : std::string{};
        };
        const AblationPin got{nullptr, nullptr, false,
                              number("true_frequency"), number("est_frequency"),
                              number("true_duration_s"), number("est_duration_s"),
                              static_cast<std::uint64_t>(number("episodes")),
                              number("path_loss_rate"), number("passive_loss_rate"),
                              static_cast<std::uint64_t>(number("qbit_merged_blocks"))};
        if (golden_print()) {
            std::printf("    {\"%s\", \"%s\", %s,\n     %.17g, %.17g, %.17g, %.17g, %lluu,\n"
                        "     %.17g, %.17g, %lluu},\n",
                        axis("link.discipline").c_str(), axis("traffic.kind").c_str(),
                        axis("link.ge.enabled").c_str(), got.truth_freq, got.est_freq,
                        got.truth_dur_s, got.est_dur_s,
                        static_cast<unsigned long long>(got.episodes), got.path_loss_rate,
                        got.passive_loss_rate,
                        static_cast<unsigned long long>(got.qbit_merged_blocks));
            continue;
        }
        const AblationPin& want = kShippedAblationAqm[i];
        SCOPED_TRACE(std::string{want.discipline} + " / " + want.traffic +
                     (want.ge ? " / GE on" : " / GE off"));
        EXPECT_EQ(axis("link.discipline"), want.discipline);
        EXPECT_EQ(axis("traffic.kind"), want.traffic);
        EXPECT_EQ(axis("link.ge.enabled"), want.ge ? "true" : "false");
        EXPECT_EQ(got.truth_freq, want.truth_freq);
        EXPECT_EQ(got.est_freq, want.est_freq);
        EXPECT_EQ(got.truth_dur_s, want.truth_dur_s);
        EXPECT_EQ(got.est_dur_s, want.est_dur_s);
        EXPECT_EQ(got.episodes, want.episodes);
        EXPECT_EQ(got.path_loss_rate, want.path_loss_rate);
        EXPECT_EQ(got.passive_loss_rate, want.passive_loss_rate);
        EXPECT_EQ(got.qbit_merged_blocks, want.qbit_merged_blocks);
    }
}

// --- TCP paths: shortened perfbench workload shapes -------------------------

// Captured from bb sweep tests/data/<spec> --state-hash; the long-lived
// and web TCP paths (ACKs on the reverse link, retransmission timers, flow
// churn) are pinned here the way Fig 9 and Table 7 pin the CBR path.  The
// truth pins cover what the hash chain cannot see: the web spec's truth is
// delay-based, folded online from the bottleneck's drops and departures,
// which never reach the chain.
struct TcpPathPin {
    const char* spec;
    const char* state_hash;
    double est_frequency;
    double true_frequency;
    double true_duration_s;
};
constexpr TcpPathPin kTcpPathPins[] = {
    {"tcp_longlived_short.json", "314ba17322bf461b", 0.16720040240234346, 0.21425,
     0.17182186118323867},
    {"web_shortflows_short.json", "dd139829e95fdad6", 0.002234996157200371, 0.0034375,
     0.06516},
};

TEST(SpecGolden, TcpPathSpecsMatchStateHashPins) {
    for (const TcpPathPin& pin : kTcpPathPins) {
        SCOPED_TRACE(pin.spec);
        JsonParse parsed = json_parse_file(std::string{BB_TEST_DATA_DIR} + "/" + pin.spec);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        // A plain scenario spec is a one-cell sweep, as bb sweep reads it.
        SweepSpec sweep;
        sweep.base = std::move(parsed.value);
        const auto grid = expand_sweep(sweep, pin.spec);
        ASSERT_TRUE(grid.ok) << grid.error;
        ASSERT_EQ(grid.cells.size(), 1u);
        const auto run = run_cells(grid.cells[0].spec.name, grid.cells, "");
        ASSERT_TRUE(run.ok) << run.error;
        const JsonValue& result = run.cells[0].result;
        const double est = cell_stat(result, "est_frequency").mean;
        const double true_freq = cell_stat(result, "true_frequency").mean;
        const double true_dur = cell_stat(result, "true_duration_s").mean;
        if (golden_print()) {
            std::printf("    {\"%s\", \"%s\", %.17g, %.17g,\n     %.17g},\n", pin.spec,
                        core::RunHasher::hex(run.merged_state_hash).c_str(), est, true_freq,
                        true_dur);
            continue;
        }
        EXPECT_EQ(core::RunHasher::hex(run.merged_state_hash), pin.state_hash);
        EXPECT_EQ(est, pin.est_frequency);
        EXPECT_EQ(true_freq, pin.true_frequency);
        EXPECT_EQ(true_dur, pin.true_duration_s);
    }
}

// One row of a ZING table: the run's own truth beside ZING's estimates.
struct GoldenZingRow {
    double truth_freq{0.0};
    double truth_dur_s{0.0};
    double truth_sd_s{0.0};
    double zing_freq{0.0};
    double zing_dur_s{0.0};
    double zing_sd_s{0.0};
    std::uint64_t lost{0};
    std::uint64_t sent{0};
    std::uint64_t runs{0};
    std::uint64_t max_run{0};
};

GoldenZingRow run_zing_row(const ScenarioSpec& spec) {
    BuiltExperiment built = build_experiment(spec);
    EXPECT_NE(built.zing, nullptr);
    built.experiment->run();
    const auto truth = built.experiment->truth();
    const auto res = built.zing->result();
    return {truth.frequency, truth.mean_duration_s, truth.sd_duration_s,
            res.loss_frequency, res.mean_duration_s, res.sd_duration_s,
            res.lost, res.sent, res.loss_runs, res.max_run_length};
}

void expect_zing_row(const GoldenZingRow& got, const GoldenZingRow& want, const char* row) {
    EXPECT_EQ(got.truth_freq, want.truth_freq) << row;
    EXPECT_EQ(got.truth_dur_s, want.truth_dur_s) << row;
    EXPECT_EQ(got.truth_sd_s, want.truth_sd_s) << row;
    EXPECT_EQ(got.zing_freq, want.zing_freq) << row;
    EXPECT_EQ(got.zing_dur_s, want.zing_dur_s) << row;
    EXPECT_EQ(got.zing_sd_s, want.zing_sd_s) << row;
    EXPECT_EQ(got.lost, want.lost) << row;
    EXPECT_EQ(got.sent, want.sent) << row;
    EXPECT_EQ(got.runs, want.runs) << row;
    EXPECT_EQ(got.max_run, want.max_run) << row;
}

void print_zing_row(const char* label, const GoldenZingRow& r) {
    std::printf("    // %s\n    {%.17g, %.17g, %.17g,\n     %.17g, %.17g, %.17g,\n"
                "     %lluu, %lluu, %lluu, %lluu},\n",
                label, r.truth_freq, r.truth_dur_s, r.truth_sd_s, r.zing_freq, r.zing_dur_s,
                r.zing_sd_s, static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.runs),
                static_cast<unsigned long long>(r.max_run));
}

// Runs the shipped examples/<table>.json (10 Hz / 256 B) and
// examples/<table>_20hz.json (the 20 Hz / 64 B probe of the table's second
// row) at 120 s, each in its own run.
void check_zing_table(const char* table, const char* label, const GoldenZingRow (&want)[2]) {
    GoldenZingRow got[2];
    const std::string names[2] = {std::string{table} + ".json",
                                  std::string{table} + "_20hz.json"};
    for (int i = 0; i < 2; ++i) {
        const auto r = parse_scenario_spec(
            shipped_doc(names[i].c_str(), "traffic.duration_s", 120), names[i]);
        ASSERT_TRUE(r.ok) << r.error;
        got[i] = run_zing_row(r.spec);
    }
    if (golden_print()) {
        std::printf("const GoldenZingRow %s[2] = {\n", label);
        print_zing_row("10 Hz, 256 B", got[0]);
        print_zing_row("20 Hz, 64 B", got[1]);
        std::printf("};\n");
        return;
    }
    expect_zing_row(got[0], want[0], "10 Hz / 256 B");
    expect_zing_row(got[1], want[1], "20 Hz / 64 B");
}

// Pinned from the table1/2/3 bench programs (since deleted) run for 120
// simulated seconds.
const GoldenZingRow kShippedTable1[2] = {
    // 10 Hz, 256 B
    {0.044416666666666667, 0.17908759434482757, 0.0097985523674913658,
     0, 0, 0,
     0u, 1245u, 0u, 0u},
    // 20 Hz, 64 B
    {0.057916666666666665, 0.14717450141304347, 0.065299307754617605,
     0.0012004801920768306, 0.0026000620000000002, 0.0036770429434109147,
     3u, 2499u, 2u, 2u},
};
const GoldenZingRow kShippedTable2[2] = {
    // 10 Hz, 256 B
    {0.0086250000000000007, 0.067828571428571433, 0.00017288756430151452,
     0.0024096385542168677, 0, 0,
     3u, 1245u, 3u, 1u},
    // 20 Hz, 64 B
    {0.0086250000000000007, 0.067871428571428569, 0.00018575654633281279,
     0.00080032012805122054, 0, 0,
     2u, 2499u, 2u, 1u},
};
const GoldenZingRow kShippedTable3[2] = {
    // 10 Hz, 256 B
    {0.0056666666666666671, 0.0638880119, 0.075904828702593477,
     0.00080321285140562252, 0, 0,
     1u, 1245u, 1u, 1u},
    // 20 Hz, 64 B
    {0.0024583333333333332, 0.031454266500000001, 0.022022508998336014,
     0, 0, 0,
     0u, 2499u, 0u, 0u},
};

TEST(SpecGolden, ShippedTable1SpecMatchesTableBench) {
    check_zing_table("table1", "kShippedTable1", kShippedTable1);
}

TEST(SpecGolden, ShippedTable2SpecMatchesTableBench) {
    check_zing_table("table2", "kShippedTable2", kShippedTable2);
}

TEST(SpecGolden, ShippedTable3SpecMatchesTableBench) {
    check_zing_table("table3", "kShippedTable3", kShippedTable3);
}
#endif  // BB_EXAMPLES_DIR

}  // namespace
}  // namespace bb::scenarios

// Sweep-engine tests: spec parsing and axis conflicts, grid expansion order,
// config-hash stability/invalidation, the on-disk cell cache (cold run
// computes, warm run hits, an edited axis value invalidates only the cells it
// touches, an entry without this build's format tag is recomputed), cells
// that differ only in "analysis" sharing one simulation, the per-sweep
// summary CSV, the metric list reaching every output and its format tag,
// simulated cells equal to build_experiment() on the replica's
// spec for every probe.tool, and synthetic (probe.streaming) cells: equal to
// the synthetic recipe run by hand, grouped by analysis, and refused where
// they cannot run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/probe_process.h"
#include "core/streaming.h"
#include "core/synthetic.h"
#include "obs/control.h"
#include "scenarios/sweep.h"
#include "util/json_io.h"

namespace bb::scenarios {
namespace {

namespace fs = std::filesystem;

constexpr const char* kTwoCellSweep = R"({
  "name": "t",
  "base": {
    "link": {"rate_mbps": 20},
    "traffic": {"kind": "cbr_uniform", "duration_s": 5, "mean_episode_gap_s": 2},
    "run": {"replicas": 1, "seed": 7}
  },
  "axes": {
    "link.discipline": ["drop_tail", "red"]
  }
})";

// Three cells that differ only in analysis.alpha: one simulation group.
constexpr const char* kAlphaSweep = R"({
  "name": "a",
  "base": {
    "link": {"rate_mbps": 20},
    "traffic": {"kind": "cbr_uniform", "duration_s": 5, "mean_episode_gap_s": 2},
    "probe": {"badabing": {"p": 0.5}},
    "run": {"replicas": 2, "seed": 7}
  },
  "axes": {
    "analysis.alpha": [0.05, 0.1, 0.2]
  }
})";

SweepParseResult parse(const std::string& text) {
    return load_sweep_spec_text(text, "sweep.json");
}

// --- parsing -----------------------------------------------------------------

TEST(SweepParse, AcceptsNameBaseAxes) {
    const auto r = parse(kTwoCellSweep);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.sweep.name, "t");
    ASSERT_EQ(r.sweep.axes.size(), 1u);
    EXPECT_EQ(r.sweep.axes[0].path, "link.discipline");
    EXPECT_EQ(r.sweep.axes[0].values.size(), 2u);
}

TEST(SweepParse, MissingBaseRejected) {
    const auto r = parse(R"({"axes": {"link.rate_mbps": [10, 20]}})");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("base"), std::string::npos) << r.error;
}

TEST(SweepParse, UnknownTopLevelKeyRejected) {
    const auto r = parse(R"({"base": {}, "axis": {}})");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown key \"axis\""), std::string::npos) << r.error;
}

TEST(SweepParse, EmptyAxisValueListIsAConflict) {
    const auto r = parse(R"({"base": {}, "axes": {"link.rate_mbps": []}})");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("conflicting axis"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("sweep.json:"), std::string::npos) << r.error;
}

TEST(SweepParse, OverlappingAxisPathsAreAConflict) {
    const auto r = parse(R"({"base": {}, "axes": {
      "link.ge": [1],
      "link.ge.enabled": [true, false]
    }})");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("conflicting axis"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("link.ge"), std::string::npos) << r.error;
}

TEST(SweepParse, NonScalarAxisValueRejected) {
    const auto r = parse(R"({"base": {}, "axes": {"link.red": [{"weight": 1}]}})");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("must be scalars"), std::string::npos) << r.error;
}

// --- expansion ---------------------------------------------------------------

TEST(SweepExpand, FirstAxisOutermostOrder) {
    const auto r = parse(R"({
      "base": {"traffic": {"duration_s": 5}},
      "axes": {
        "link.discipline": ["drop_tail", "red"],
        "link.ge.enabled": [false, true]
      }
    })");
    ASSERT_TRUE(r.ok) << r.error;
    const auto e = expand_sweep(r.sweep, "sweep.json");
    ASSERT_TRUE(e.ok) << e.error;
    ASSERT_EQ(e.cells.size(), 4u);
    // discipline outermost, ge innermost: (dt,off) (dt,on) (red,off) (red,on)
    EXPECT_EQ(e.cells[0].axis_values[0].second, "drop_tail");
    EXPECT_EQ(e.cells[0].axis_values[1].second, "false");
    EXPECT_EQ(e.cells[1].axis_values[0].second, "drop_tail");
    EXPECT_EQ(e.cells[1].axis_values[1].second, "true");
    EXPECT_EQ(e.cells[2].axis_values[0].second, "red");
    EXPECT_EQ(e.cells[2].axis_values[1].second, "false");
    EXPECT_EQ(e.cells[3].axis_values[0].second, "red");
    EXPECT_EQ(e.cells[3].axis_values[1].second, "true");
    // Axis values land in the resolved spec.
    EXPECT_EQ(e.cells[0].spec.testbed.discipline, QueueDiscipline::drop_tail);
    EXPECT_EQ(e.cells[3].spec.testbed.discipline, QueueDiscipline::red);
    EXPECT_TRUE(e.cells[3].spec.testbed.ge_enabled);
}

TEST(SweepExpand, HashesAreStableAndDistinct) {
    const auto r1 = parse(kTwoCellSweep);
    const auto r2 = parse(kTwoCellSweep);
    ASSERT_TRUE(r1.ok && r2.ok);
    const auto e1 = expand_sweep(r1.sweep, "sweep.json");
    const auto e2 = expand_sweep(r2.sweep, "sweep.json");
    ASSERT_TRUE(e1.ok && e2.ok);
    ASSERT_EQ(e1.cells.size(), 2u);
    EXPECT_EQ(e1.cells[0].config_hash, e2.cells[0].config_hash);
    EXPECT_EQ(e1.cells[1].config_hash, e2.cells[1].config_hash);
    EXPECT_NE(e1.cells[0].config_hash, e1.cells[1].config_hash);
}

TEST(SweepExpand, EditingOneAxisValueInvalidatesOnlyItsCells) {
    const auto before = parse(R"({
      "base": {"traffic": {"duration_s": 5}},
      "axes": {"probe.badabing.p": [0.1, 0.3, 0.5]}
    })");
    const auto after = parse(R"({
      "base": {"traffic": {"duration_s": 5}},
      "axes": {"probe.badabing.p": [0.1, 0.4, 0.5]}
    })");
    ASSERT_TRUE(before.ok && after.ok);
    const auto eb = expand_sweep(before.sweep, "sweep.json");
    const auto ea = expand_sweep(after.sweep, "sweep.json");
    ASSERT_TRUE(eb.ok && ea.ok);
    EXPECT_EQ(eb.cells[0].config_hash, ea.cells[0].config_hash);  // 0.1 untouched
    EXPECT_NE(eb.cells[1].config_hash, ea.cells[1].config_hash);  // 0.3 -> 0.4
    EXPECT_EQ(eb.cells[2].config_hash, ea.cells[2].config_hash);  // 0.5 untouched
}

TEST(SweepExpand, BadAxisValueFailsWithCellDiagnostic) {
    const auto r = parse(R"({
      "base": {"traffic": {"duration_s": 5}},
      "axes": {"link.rate_mbps": [20, -1]}
    })");
    ASSERT_TRUE(r.ok) << r.error;
    const auto e = expand_sweep(r.sweep, "sweep.json");
    ASSERT_FALSE(e.ok);
    EXPECT_NE(e.error.find("rate_mbps"), std::string::npos) << e.error;
}

TEST(SweepExpand, AxisThroughNonObjectFails) {
    const auto r = parse(R"({
      "base": {"link": 3},
      "axes": {"link.rate_mbps": [20]}
    })");
    ASSERT_TRUE(r.ok) << r.error;
    const auto e = expand_sweep(r.sweep, "sweep.json");
    ASSERT_FALSE(e.ok);
    EXPECT_NE(e.error.find("link.rate_mbps"), std::string::npos) << e.error;
}

// --- cached execution --------------------------------------------------------

class SweepRunnerCache : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test directory names: ctest runs each TEST_F as its own process
        // in parallel, so a shared path would race.
        const std::string test =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        out_dir_ = fs::temp_directory_path() / ("bb_sweep_" + test + "_out");
        cache_dir_ = fs::temp_directory_path() / ("bb_sweep_" + test + "_cache");
        fs::remove_all(out_dir_);
        fs::remove_all(cache_dir_);
    }
    void TearDown() override {
        fs::remove_all(out_dir_);
        fs::remove_all(cache_dir_);
    }

    SweepRunner::RunOutcome run(const std::string& text, bool recording = false,
                                std::vector<SweepProgress>* progress = nullptr) {
        const auto r = load_sweep_spec_text(text, "sweep.json");
        EXPECT_TRUE(r.ok) << r.error;
        const auto e = expand_sweep(r.sweep, "sweep.json");
        EXPECT_TRUE(e.ok) << e.error;
        SweepRunner::Config cfg;
        cfg.out_dir = out_dir_.string();
        cfg.cache_dir = cache_dir_.string();
        cfg.threads = 1;
        cfg.recording.enabled = recording;
        if (progress != nullptr) {
            cfg.progress = [progress](const SweepProgress& p) { progress->push_back(p); };
        }
        SweepRunner runner{std::move(cfg)};
        return runner.run(r.sweep.name, e.cells);
    }

    fs::path out_dir_;
    fs::path cache_dir_;
};

TEST_F(SweepRunnerCache, ColdComputesWarmHitsAndResultsMatch) {
    const auto cold = run(kTwoCellSweep);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.computed, 2u);
    EXPECT_EQ(cold.cached, 0u);

    const auto warm = run(kTwoCellSweep);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.computed, 0u);
    EXPECT_EQ(warm.cached, 2u);

    ASSERT_EQ(cold.cells.size(), 2u);
    ASSERT_EQ(warm.cells.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(warm.cells[i].config_hash, cold.cells[i].config_hash);
        // The cached result document round-trips the computed one exactly.
        EXPECT_EQ(json_canonical(warm.cells[i].result),
                  json_canonical(cold.cells[i].result));
    }
}

TEST_F(SweepRunnerCache, ChangedAxisValueRecomputesOnlyAffectedCells) {
    const auto cold = run(kTwoCellSweep);
    ASSERT_TRUE(cold.ok) << cold.error;

    // Same sweep with one extra discipline: the two existing cells must be
    // cache hits, only the new cell computes.
    const std::string grown = R"({
      "name": "t",
      "base": {
        "link": {"rate_mbps": 20},
        "traffic": {"kind": "cbr_uniform", "duration_s": 5, "mean_episode_gap_s": 2},
        "run": {"replicas": 1, "seed": 7}
      },
      "axes": {
        "link.discipline": ["drop_tail", "red", "pie"]
      }
    })";
    const auto second = run(grown);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.cached, 2u);
    EXPECT_EQ(second.computed, 1u);
}

TEST_F(SweepRunnerCache, CorruptCacheEntryIsRecomputedNotTrusted) {
    const auto cold = run(kTwoCellSweep);
    ASSERT_TRUE(cold.ok) << cold.error;

    // Truncate one cache file: the runner must recompute that cell.
    std::size_t corrupted = 0;
    for (const auto& entry : fs::directory_iterator(cache_dir_)) {
        std::FILE* f = std::fopen(entry.path().c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{not json", f);
        std::fclose(f);
        ++corrupted;
        break;
    }
    ASSERT_EQ(corrupted, 1u);

    const auto again = run(kTwoCellSweep);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.computed, 1u);
    EXPECT_EQ(again.cached, 1u);
}

TEST_F(SweepRunnerCache, CacheEntryCountsOnlyWithThisBuildsSchemaTag) {
    const auto cold = run(kTwoCellSweep);
    ASSERT_TRUE(cold.ok) << cold.error;

    // Strip the format tag from one entry, as a build that predates it wrote
    // them: same config hash, but its key set is not this build's.
    const std::string tag = "  \"schema\": \"" + cell_schema() + "\",\n";
    const fs::path entry = cache_dir_ / (cold.cells[0].config_hash + ".json");
    std::ifstream in{entry};
    std::string text{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    in.close();
    const auto at = text.find(tag);
    ASSERT_NE(at, std::string::npos) << text;
    text.erase(at, tag.size());
    ASSERT_TRUE(write_text_file(entry.string(), text));

    const auto again = run(kTwoCellSweep);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_FALSE(again.cells[0].cached);
    EXPECT_TRUE(again.cells[1].cached);
    EXPECT_EQ(json_canonical(again.cells[0].result), json_canonical(cold.cells[0].result));

    // The recomputed entry is rewritten with the tag: now every cell hits.
    const auto warm = run(kTwoCellSweep);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.cached, 2u);
}

// The cell document's keys, pinned beside its format tag, which is derived
// from the metric list that decides them.
TEST_F(SweepRunnerCache, CellDocumentKeySetIsPinnedToItsSchemaTag) {
    const auto cold = run(kTwoCellSweep);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.cells[0].result.find("schema")->string_value, cell_schema());
    const auto keys = [](const JsonValue* v) {
        std::vector<std::string> out;
        if (v != nullptr) {
            for (const auto& m : v->members) out.push_back(m.first);
        }
        return out;
    };
    const JsonValue& doc = cold.cells[0].result;
    EXPECT_EQ(keys(&doc), (std::vector<std::string>{"schema", "config_hash", "name", "axes",
                                                    "aggregate", "replicas"}));
    EXPECT_EQ(keys(doc.find("aggregate")),
              (std::vector<std::string>{"p", "replicas", "true_frequency", "est_frequency",
                                        "true_duration_s", "est_duration_s", "offered_load",
                                        "est_duration_improved_s"}));
    const JsonValue* replicas = doc.find("replicas");
    ASSERT_NE(replicas, nullptr);
    ASSERT_FALSE(replicas->items.empty());
    EXPECT_EQ(keys(&replicas->items[0]),
              (std::vector<std::string>{
                  "replica", "seed", "true_frequency", "est_frequency", "true_duration_s",
                  "est_duration_s", "est_duration_improved_s", "r_hat", "episodes",
                  "queue_drops", "upstream_drops", "experiments", "pair_asymmetry",
                  "path_loss_rate", "passive_loss_rate", "qbit_merged_blocks"}));
}

TEST_F(SweepRunnerCache, PerCellResultFilesLandInOutDir) {
    const auto cold = run(kTwoCellSweep);
    ASSERT_TRUE(cold.ok) << cold.error;
    std::set<std::string> names;
    for (const auto& entry : fs::directory_iterator(out_dir_)) {
        names.insert(entry.path().filename().string());
    }
    for (const auto& cell : cold.cells) {
        EXPECT_TRUE(names.contains("t-" + cell.config_hash + ".json"))
            << "missing per-cell result for " << cell.config_hash;
    }
    // Result docs embed their own config hash (the cache-validity token).
    const JsonValue* hash = cold.cells[0].result.find("config_hash");
    ASSERT_NE(hash, nullptr);
    EXPECT_EQ(hash->string_value, cold.cells[0].config_hash);
}

TEST_F(SweepRunnerCache, RecordingWritesSeriesFilesAndCachesThem) {
    obs::set_enabled(true);
    const auto cold = run(kTwoCellSweep, /*recording=*/true);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.computed, 2u);
    for (const auto& cell : cold.cells) {
        const fs::path out_series = out_dir_ / ("t-" + cell.config_hash + ".series.json");
        const fs::path cache_series = cache_dir_ / (cell.config_hash + ".series.json");
        ASSERT_TRUE(fs::exists(out_series)) << out_series;
        ASSERT_TRUE(fs::exists(cache_series)) << cache_series;
        // The series doc is valid JSON tagged with the cell's hash.
        const JsonParse parsed = json_parse_file(out_series.string());
        ASSERT_TRUE(parsed.ok) << parsed.error;
        const JsonValue* hash = parsed.value.find("config_hash");
        ASSERT_NE(hash, nullptr);
        EXPECT_EQ(hash->string_value, cell.config_hash);
    }

    // Warm run with recording still on: series cache files satisfy the cells.
    const auto warm = run(kTwoCellSweep, /*recording=*/true);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.computed, 0u);
    EXPECT_EQ(warm.cached, 2u);
}

TEST_F(SweepRunnerCache, CacheWithoutSeriesFilesIsRecomputedWhenRecording) {
    obs::set_enabled(true);
    // Seed the cache with a non-recording run: result files only.
    const auto plain = run(kTwoCellSweep);
    ASSERT_TRUE(plain.ok) << plain.error;
    EXPECT_EQ(plain.computed, 2u);

    // With recording requested, those cache entries are incomplete (no series
    // document), so every cell recomputes...
    const auto recording = run(kTwoCellSweep, /*recording=*/true);
    ASSERT_TRUE(recording.ok) << recording.error;
    EXPECT_EQ(recording.computed, 2u);
    EXPECT_EQ(recording.cached, 0u);

    // ...while a later non-recording run still hits the (now richer) cache.
    const auto plain_again = run(kTwoCellSweep);
    ASSERT_TRUE(plain_again.ok) << plain_again.error;
    EXPECT_EQ(plain_again.cached, 2u);
}

TEST_F(SweepRunnerCache, ProgressHookFiresPerCellInOrder) {
    std::vector<SweepProgress> seen;
    const auto cold = run(kTwoCellSweep, /*recording=*/false, &seen);
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].done, 1u);
    EXPECT_EQ(seen[0].total, 2u);
    EXPECT_FALSE(seen[0].cell_cached);
    EXPECT_EQ(seen[0].config_hash, cold.cells[0].config_hash);
    EXPECT_EQ(seen[1].done, 2u);
    EXPECT_EQ(seen[1].config_hash, cold.cells[1].config_hash);
    EXPECT_GE(seen[1].elapsed_seconds, seen[0].elapsed_seconds);

    std::vector<SweepProgress> warm_seen;
    const auto warm = run(kTwoCellSweep, /*recording=*/false, &warm_seen);
    ASSERT_TRUE(warm.ok) << warm.error;
    ASSERT_EQ(warm_seen.size(), 2u);
    EXPECT_TRUE(warm_seen[0].cell_cached);
    EXPECT_TRUE(warm_seen[1].cell_cached);
    EXPECT_EQ(warm_seen[1].cached, 2u);
}

// Every publish goes through write_text_file's tmp+rename, so a concurrent
// reader mid-sweep sees either nothing or a complete document — never a
// truncated prefix.  This hook emulates bb sweep's --progress-json sink and
// re-parses the file after EVERY cell, i.e. genuinely mid-sweep.
TEST_F(SweepRunnerCache, MidSweepProgressJsonParsesAndNoTmpFilesRemain) {
    const auto r = load_sweep_spec_text(kTwoCellSweep, "sweep.json");
    ASSERT_TRUE(r.ok) << r.error;
    const auto e = expand_sweep(r.sweep, "sweep.json");
    ASSERT_TRUE(e.ok) << e.error;

    fs::create_directories(out_dir_);
    const fs::path progress_path = out_dir_ / "progress.json";
    std::size_t parsed_ok = 0;
    SweepRunner::Config cfg;
    cfg.out_dir = out_dir_.string();
    cfg.cache_dir = cache_dir_.string();
    cfg.threads = 1;
    cfg.progress = [&](const SweepProgress& p) {
        EXPECT_TRUE(write_text_file(progress_path.string(), progress_json(p)));
        const auto parsed = json_parse_file(progress_path.string());
        EXPECT_TRUE(parsed.ok) << parsed.error;
        if (parsed.ok) ++parsed_ok;
        EXPECT_FALSE(fs::exists(progress_path.string() + ".tmp"));
    };
    SweepRunner runner{std::move(cfg)};
    const auto outcome = runner.run(r.sweep.name, e.cells);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(parsed_ok, 2u);

    // No publish — cell results, series, cache entries, summary — may leave a
    // .tmp behind, and every emitted .json must parse.
    for (const auto& dir : {out_dir_, cache_dir_}) {
        for (const auto& entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file()) continue;
            const std::string path = entry.path().string();
            EXPECT_NE(entry.path().extension(), ".tmp") << path;
            if (entry.path().extension() == ".json") {
                const auto parsed = json_parse_file(path);
                EXPECT_TRUE(parsed.ok) << parsed.error;
            }
        }
    }
}

TEST_F(SweepRunnerCache, AnalysisOnlyCellsShareOneSimulation) {
    const auto cold = run(kAlphaSweep);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.computed, 3u);
    EXPECT_EQ(cold.simulated, 1u);

    const auto warm = run(kAlphaSweep);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.cached, 3u);
    EXPECT_EQ(warm.simulated, 0u);

    // Cells that differ outside "analysis" each simulate.
    const auto two = run(kTwoCellSweep);
    ASSERT_TRUE(two.ok) << two.error;
    EXPECT_EQ(two.simulated, 2u);
}

// One group, three cache states: cell 0 cached, cell 1's entry corrupt,
// cell 2's entry missing.  The group simulates once for the two misses, the
// cached cell comes from disk, and every result equals the cold run's.
TEST_F(SweepRunnerCache, MixedCacheGroupSimulatesOnceAndServesCachedCell) {
    const auto cold = run(kAlphaSweep);
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_EQ(cold.cells.size(), 3u);

    const fs::path corrupt = cache_dir_ / (cold.cells[1].config_hash + ".json");
    ASSERT_TRUE(write_text_file(corrupt.string(), "{not json"));
    ASSERT_TRUE(fs::remove(cache_dir_ / (cold.cells[2].config_hash + ".json")));

    const auto again = run(kAlphaSweep);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.simulated, 1u);
    EXPECT_EQ(again.cached, 1u);
    EXPECT_EQ(again.computed, 2u);
    ASSERT_EQ(again.cells.size(), 3u);
    EXPECT_TRUE(again.cells[0].cached);
    EXPECT_FALSE(again.cells[1].cached);
    EXPECT_FALSE(again.cells[2].cached);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(json_canonical(again.cells[i].result), json_canonical(cold.cells[i].result))
            << "cell " << i;
    }
    // The recomputed cell replaced its corrupt entry.
    EXPECT_TRUE(json_parse_file(corrupt.string()).ok);
}

TEST_F(SweepRunnerCache, SummaryCsvHasOneRowPerCellCachedIncluded) {
    const auto read_csv = [&] {
        std::ifstream in{out_dir_ / "t.csv"};
        std::vector<std::string> lines;
        for (std::string line; std::getline(in, line);) lines.push_back(line);
        return lines;
    };
    const auto cold = run(kTwoCellSweep);
    ASSERT_TRUE(cold.ok) << cold.error;
    const auto cold_csv = read_csv();
    ASSERT_EQ(cold_csv.size(), 3u);
    EXPECT_EQ(cold_csv[0],
              "cell,config_hash,link.discipline,p,replicas,true_frequency,est_frequency,"
              "true_duration_s,est_duration_s,offered_load,est_duration_improved_s");
    EXPECT_EQ(cold_csv[1].rfind("0," + cold.cells[0].config_hash + ",drop_tail,0.3,1,", 0), 0u)
        << cold_csv[1];
    EXPECT_EQ(cold_csv[2].rfind("1," + cold.cells[1].config_hash + ",red,0.3,1,", 0), 0u)
        << cold_csv[2];

    const auto warm = run(kTwoCellSweep);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.cached, 2u);
    EXPECT_EQ(read_csv(), cold_csv);
}

// The metric list drives every output: each aggregated metric, in list
// order, is a stat of the cell document's aggregate, a CSV column after the
// axes, p and the replica count, and a column of the `bb sweep` table.
TEST_F(SweepRunnerCache, EveryAggregatedMetricReachesEveryOutputInListOrder) {
    const auto cold = run(kTwoCellSweep);
    ASSERT_TRUE(cold.ok) << cold.error;
    std::vector<std::string> aggregated;
    for (const Metric& m : metrics()) {
        if (m.aggregated()) aggregated.emplace_back(m.key);
    }
    ASSERT_FALSE(aggregated.empty());

    std::vector<std::string> stats;
    for (const auto& [key, value] : cold.cells[0].result.find("aggregate")->members) {
        if (value.is_object()) stats.push_back(key);
    }
    EXPECT_EQ(stats, aggregated);

    std::ifstream in{out_dir_ / "t.csv"};
    std::string header;
    std::getline(in, header);
    std::string want_csv = "cell,config_hash,link.discipline,p,replicas";
    for (const std::string& key : aggregated) want_csv += "," + key;
    EXPECT_EQ(header, want_csv);

    const auto grid = expand_sweep(parse(kTwoCellSweep).sweep, "sweep.json");
    ASSERT_TRUE(grid.ok) << grid.error;
    const std::string table = summary_table(grid.cells, cold.cells);
    const std::string table_header = table.substr(0, table.find('\n'));
    std::size_t at = 0;
    for (const std::string& key : aggregated) {
        const std::size_t found = table_header.find(" " + key + " ", at);
        ASSERT_NE(found, std::string::npos) << key << " after column " << at << ": "
                                            << table_header;
        at = found + key.size();
    }
    // One row per cell, after the header.
    EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 3);
}

// The format tag is derived from the metric list: a list that gains a key
// writes another document, so its tag differs and old cache entries miss.
TEST(CellSchema, ChangesWhenTheMetricListGainsAKey) {
    std::vector<Metric> list(metrics().begin(), metrics().end());
    const std::string tag = cell_schema(list);
    EXPECT_EQ(tag, cell_schema());
    EXPECT_EQ(tag.rfind("bb.cell.", 0), 0u) << tag;
    list.push_back(Metric{"extra", Metric::Kind::ratio, Metric::Output::replica,
                          Metric::Role::other,
                          [](const ReplicaResult&, TimeNs) -> std::optional<double> {
                              return 1.0;
                          }});
    const std::string gained = cell_schema(list);
    EXPECT_NE(gained, tag);
    // So does a key that changes only its output (per replica -> both).
    list.back().output = Metric::Output::both;
    EXPECT_NE(cell_schema(list), gained);
}

// The sweep-level hash chain (DESIGN.md §14): computed cells carry merged
// replica digests, cached cells carry none, and recomputing from scratch
// reproduces the same merged digest.
TEST_F(SweepRunnerCache, StateHashCoversComputedCellsOnlyAndIsReproducible) {
    const auto run_hashed = [&] {
        const auto r = load_sweep_spec_text(kTwoCellSweep, "sweep.json");
        EXPECT_TRUE(r.ok) << r.error;
        const auto e = expand_sweep(r.sweep, "sweep.json");
        EXPECT_TRUE(e.ok) << e.error;
        SweepRunner::Config cfg;
        cfg.out_dir = out_dir_.string();
        cfg.cache_dir = cache_dir_.string();
        cfg.threads = 1;
        cfg.state_hash = true;
        cfg.hash_trace_capacity = 64;
        SweepRunner runner{std::move(cfg)};
        return runner.run(r.sweep.name, e.cells);
    };

    const auto cold = run_hashed();
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.hashed_cells, 2u);
    EXPECT_NE(cold.merged_state_hash, 0u);
    ASSERT_NE(cold.hash_trace, nullptr);
    EXPECT_GT(cold.hash_trace->records(), 0u);
    for (const auto& cell : cold.cells) {
        EXPECT_TRUE(cell.hashed);
        EXPECT_NE(cell.state_hash, 0u);
    }

    // Warm run: cells come from cache, so nothing is hashed.
    const auto warm = run_hashed();
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.hashed_cells, 0u);
    for (const auto& cell : warm.cells) EXPECT_FALSE(cell.hashed);

    // From-scratch recompute reproduces the cold digest exactly.
    fs::remove_all(cache_dir_);
    const auto again = run_hashed();
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.hashed_cells, 2u);
    EXPECT_EQ(again.merged_state_hash, cold.merged_state_hash);
    ASSERT_EQ(again.cells.size(), cold.cells.size());
    for (std::size_t i = 0; i < again.cells.size(); ++i) {
        EXPECT_EQ(again.cells[i].state_hash, cold.cells[i].state_hash);
    }
}

// --- synthetic (probe.streaming) cells --------------------------------------

// 4 replicas of 20,000 slots each (100 s at 5 ms).
constexpr const char* kStreamCell = R"({
  "name": "s",
  "traffic": {"duration_s": 100},
  "probe": {"tool": "badabing", "streaming": true, "badabing": {"p": 0.3}},
  "run": {"replicas": 4, "seed": 1}
})";

std::string g17(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double number_at(const JsonValue& doc, const char* key) {
    const JsonValue* v = doc.find(key);
    EXPECT_TRUE(v != nullptr && v->is_number()) << key;
    return v != nullptr && v->is_number() ? v->number_value : -1.0;
}

// A streaming cell's replica i is the synthetic recipe run by hand on the
// replica's positional seed: mean on/off 20/180 slots, generator seeded
// seed ^ 0x5EED5, scorer seeded seed ^ 0xBADA0.
TEST_F(SweepRunnerCache, StreamingCellEqualsTheSyntheticRecipe) {
    const SpecResult spec = load_scenario_spec_text(kStreamCell, "s.json");
    ASSERT_TRUE(spec.ok) << spec.error;
    const TimeNs slot = spec.spec.badabing.slot_width;
    const std::int64_t slots = spec.spec.workload.duration / slot;
    ASSERT_EQ(slots, 20'000);

    std::uint64_t digest = 0;
    for (const std::size_t threads : {1u, 4u}) {
        fs::remove_all(cache_dir_);
        const auto r = load_sweep_spec_text(R"({"base": )" + std::string{kStreamCell} + "}",
                                            "s.json");
        ASSERT_TRUE(r.ok) << r.error;
        const auto e = expand_sweep(r.sweep, "s.json");
        ASSERT_TRUE(e.ok) << e.error;
        SweepRunner::Config cfg;
        cfg.out_dir = out_dir_.string();
        cfg.cache_dir = cache_dir_.string();
        cfg.threads = threads;
        cfg.state_hash = true;
        SweepRunner runner{std::move(cfg)};
        const auto out = runner.run("s", e.cells);
        ASSERT_TRUE(out.ok) << out.error;
        ASSERT_EQ(out.cells.size(), 1u);
        if (threads == 1) digest = out.merged_state_hash;
        EXPECT_EQ(out.merged_state_hash, digest) << threads << " threads";

        const JsonValue* reps = out.cells[0].result.find("replicas");
        ASSERT_NE(reps, nullptr);
        ASSERT_EQ(reps->items.size(), 4u);
        const auto seeds = ReplicaRunner::replica_seeds(spec.spec.seed, 4);
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            core::ProbeProcessConfig pcfg;
            pcfg.p = spec.spec.badabing.p;
            pcfg.improved = spec.spec.badabing.improved;
            pcfg.extended_fraction = spec.spec.badabing.extended_fraction;
            core::SyntheticSeriesGen gen{Rng{seeds[i] ^ 0x5EED5ULL}, 20.0, 180.0};
            core::SeriesTruthAccumulator truth;
            core::StreamingAnalyzer analyzer{spec.spec.estimator};
            core::StreamingExperimentScorer scorer{Rng{seeds[i] ^ 0xBADA0ULL}, pcfg, analyzer};
            for (std::int64_t k = 0; k < slots; ++k) {
                const bool c = gen.next();
                truth.consume(c);
                scorer.step(c);
            }
            const core::SeriesTruth t = truth.finalize();
            const auto res = analyzer.finalize();
            const double slot_s = slot.to_seconds();

            const JsonValue& rep = reps->items[i];
            EXPECT_EQ(g17(number_at(rep, "true_frequency")), g17(t.frequency));
            EXPECT_EQ(g17(number_at(rep, "est_frequency")), g17(res.frequency.value));
            EXPECT_EQ(g17(number_at(rep, "true_duration_s")),
                      g17(t.mean_duration_slots * slot_s));
            ASSERT_TRUE(res.duration_basic.valid);
            EXPECT_EQ(g17(number_at(rep, "est_duration_s")),
                      g17(res.duration_basic.slots * slot_s));
            EXPECT_EQ(number_at(rep, "episodes"), static_cast<double>(t.episodes));
            EXPECT_EQ(number_at(rep, "experiments"),
                      static_cast<double>(scorer.experiments_completed()));
        }
    }
}

// Streaming cells that differ only in "analysis" share one stream per
// replica, and each equals the cell run on its own.
TEST_F(SweepRunnerCache, StreamingAnalysisCellsShareOneStream) {
    constexpr const char* kBase = R"({
      "traffic": {"duration_s": 100},
      "probe": {"tool": "badabing", "streaming": true,
                "badabing": {"p": 0.3, "improved": true}},
      "analysis": {"pairs_from_extended": %s},
      "run": {"replicas": 2, "seed": 3}
    })";
    const auto grouped = run(R"({"name": "g", "base": {
      "traffic": {"duration_s": 100},
      "probe": {"tool": "badabing", "streaming": true,
                "badabing": {"p": 0.3, "improved": true}},
      "run": {"replicas": 2, "seed": 3}},
      "axes": {"analysis.pairs_from_extended": [false, true]}})");
    ASSERT_TRUE(grouped.ok) << grouped.error;
    EXPECT_EQ(grouped.computed, 2u);
    EXPECT_EQ(grouped.simulated, 1u);
    for (std::size_t i = 0; i < 2; ++i) {
        fs::remove_all(cache_dir_);
        char text[512];
        std::snprintf(text, sizeof text, kBase, i == 0 ? "false" : "true");
        const auto alone = run(R"({"name": "g", "base": )" + std::string{text} + "}");
        ASSERT_TRUE(alone.ok) << alone.error;
        const JsonValue& a = alone.cells[0].result;
        const JsonValue& g = grouped.cells[i].result;
        EXPECT_EQ(json_canonical(*a.find("replicas")), json_canonical(*g.find("replicas")));
        EXPECT_EQ(json_canonical(*a.find("aggregate")), json_canonical(*g.find("aggregate")));
        // The improved design yields a valid §5.3 estimate on 20,000 slots.
        const JsonValue* improved = json_get_path(g, "aggregate.est_duration_improved_s.mean");
        ASSERT_NE(improved, nullptr);
        EXPECT_TRUE(improved->is_number());
    }
}

TEST_F(SweepRunnerCache, StreamCellsThatCannotRunAreRefusedByName) {
    const auto empty = run(R"({"base": {"traffic": {"duration_s": 0.001},
      "probe": {"streaming": true}}})");
    ASSERT_FALSE(empty.ok);
    EXPECT_NE(empty.error.find("cell 0 ("), std::string::npos) << empty.error;
    EXPECT_NE(empty.error.find("at least one slot"), std::string::npos) << empty.error;
    const auto recorded =
        run(R"({"base": )" + std::string{kStreamCell} + "}", /*recording=*/true);
    ASSERT_FALSE(recorded.ok);
    EXPECT_NE(recorded.error.find("no sim-time series"), std::string::npos) << recorded.error;
    EXPECT_FALSE(fs::exists(out_dir_));
}

// --- simulated cells of every probe.tool -------------------------------------

// The world of replica `seed` of `spec`, as perfbench's replica_spec derives
// it: workload.seed = seed, testbed.seed = seed ^ 0x5EED.
BuiltExperiment build_replica(const ScenarioSpec& spec, std::uint64_t seed) {
    ScenarioSpec s = spec;
    s.workload.seed = seed;
    s.testbed.seed = seed ^ 0x5EEDULL;
    BuiltExperiment built = build_experiment(s);
    built.experiment->run();
    return built;
}

// A one-replica BADABING cell is build_experiment() on the replica's spec,
// analysed with the spec's marking, at %.17g.
TEST_F(SweepRunnerCache, OneReplicaBadabingCellEqualsBuildExperiment) {
    constexpr const char* kCell = R"({
      "traffic": {"kind": "cbr_uniform", "duration_s": 10, "mean_episode_gap_s": 2},
      "link": {"discipline": "red"},
      "probe": {"badabing": {"p": 0.5}},
      "run": {"replicas": 1, "seed": 11}
    })";
    const SpecResult spec = load_scenario_spec_text(kCell, "b.json");
    ASSERT_TRUE(spec.ok) << spec.error;
    const auto out = run(R"({"name": "b", "base": )" + std::string{kCell} + "}");
    ASSERT_TRUE(out.ok) << out.error;
    const JsonValue* reps = out.cells[0].result.find("replicas");
    ASSERT_TRUE(reps != nullptr && reps->items.size() == 1u);
    const JsonValue& rep = reps->items[0];

    const std::uint64_t seed = ReplicaRunner::replica_seeds(11, 1)[0];
    EXPECT_EQ(number_at(rep, "seed"), static_cast<double>(seed));
    const BuiltExperiment built = build_replica(spec.spec, seed);
    ASSERT_NE(built.badabing, nullptr);
    const auto truth = built.experiment->truth();
    const auto res = built.badabing->analyze(marking_for(spec.spec), spec.spec.estimator);
    const TimeNs slot = spec.spec.badabing.slot_width;
    EXPECT_EQ(g17(number_at(rep, "true_frequency")), g17(truth.frequency));
    EXPECT_EQ(g17(number_at(rep, "true_duration_s")), g17(truth.mean_duration_s));
    EXPECT_EQ(g17(number_at(rep, "est_frequency")), g17(res.frequency.value));
    ASSERT_TRUE(res.duration_basic.valid);
    EXPECT_EQ(g17(number_at(rep, "est_duration_s")), g17(res.duration_basic.seconds(slot)));
    EXPECT_EQ(number_at(rep, "experiments"), static_cast<double>(res.experiments));
    EXPECT_EQ(g17(number_at(rep, "pair_asymmetry")), g17(res.validation.pair_asymmetry));
    EXPECT_EQ(number_at(rep, "episodes"), static_cast<double>(truth.episodes));
    const JsonValue* load = json_get_path(out.cells[0].result, "aggregate.offered_load.mean");
    ASSERT_NE(load, nullptr);
    EXPECT_EQ(g17(load->number_value),
              g17(built.badabing->offered_load_fraction(spec.spec.testbed.bottleneck_rate_bps)));
}

// ZING, STING and truth-only cells run as replicas: analysis-only siblings
// share one simulation, each tool's estimates land in the est_* keys (null
// where the tool makes none), and ZING and STING replicas end with their own
// tallies, equal to build_experiment() on the replica's spec.
TEST_F(SweepRunnerCache, ToolCellsRunAsReplicasAndShareOneSimulationPerTool) {
    constexpr const char* kTools = R"({"name": "tools", "base": {
      "traffic": {"kind": "cbr_uniform", "duration_s": 12, "mean_episode_gap_s": 2},
      "probe": {"zing": {"mean_interval_ms": 10, "packet_bytes": 256},
                "sting": {"burst_interval_s": 2}},
      "run": {"replicas": 2, "seed": 5}},
      "axes": {"probe.tool": ["zing", "sting", "none"], "analysis.alpha": [0.05, 0.2]}})";
    const auto out = run(kTools);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.cells.size(), 6u);
    EXPECT_EQ(out.computed, 6u);
    EXPECT_EQ(out.simulated, 3u);

    const auto keys = [](const JsonValue& v) {
        std::vector<std::string> names;
        for (const auto& m : v.members) names.push_back(m.first);
        return names;
    };
    const std::vector<std::string> common{
        "replica", "seed", "true_frequency", "est_frequency", "true_duration_s",
        "est_duration_s", "est_duration_improved_s", "r_hat", "episodes", "queue_drops",
        "upstream_drops", "experiments", "pair_asymmetry", "path_loss_rate",
        "passive_loss_rate", "qbit_merged_blocks"};
    const auto grid = expand_sweep(load_sweep_spec_text(kTools, "tools.json").sweep, "t");
    ASSERT_TRUE(grid.ok) << grid.error;
    const auto seeds = ReplicaRunner::replica_seeds(5, 2);
    for (std::size_t c = 0; c < out.cells.size(); c += 2) {
        const JsonValue& doc = out.cells[c].result;
        // The analysis sibling is the same simulation, so the same document
        // but for its config hash and axes.
        EXPECT_EQ(json_canonical(*doc.find("replicas")),
                  json_canonical(*out.cells[c + 1].result.find("replicas")));
        EXPECT_EQ(json_canonical(*doc.find("aggregate")),
                  json_canonical(*out.cells[c + 1].result.find("aggregate")));
        EXPECT_TRUE(json_get_path(doc, "aggregate.p")->is_null());

        const ScenarioSpec& spec = grid.cells[c].spec;
        const char* tool = to_string(spec.tool);
        const bool zing = spec.tool == ScenarioSpec::ProbeTool::zing;
        const bool sting = spec.tool == ScenarioSpec::ProbeTool::sting;
        const bool none = spec.tool == ScenarioSpec::ProbeTool::none;
        EXPECT_EQ(json_get_path(doc, "aggregate.est_frequency.mean")->is_null(), none);
        EXPECT_EQ(json_get_path(doc, "aggregate.est_duration_s.mean")->is_null(), !zing);
        const JsonValue* reps = doc.find("replicas");
        ASSERT_TRUE(reps != nullptr && reps->items.size() == 2u);
        for (std::size_t i = 0; i < 2; ++i) {
            const JsonValue& rep = reps->items[i];
            std::vector<std::string> want = common;
            if (zing) want.insert(want.end(), {"sent", "lost", "loss_runs", "max_run_length"});
            if (sting) want.insert(want.end(), {"bursts", "segments", "holes"});
            EXPECT_EQ(keys(rep), want) << tool;
            EXPECT_EQ(rep.find("est_frequency")->is_null(), none) << tool;
            EXPECT_EQ(rep.find("est_duration_s")->is_null(), !zing) << tool;
            EXPECT_TRUE(rep.find("experiments")->is_null()) << tool;
            EXPECT_TRUE(rep.find("r_hat")->is_null()) << tool;

            const BuiltExperiment built = build_replica(spec, seeds[i]);
            const auto truth = built.experiment->truth();
            EXPECT_EQ(g17(number_at(rep, "true_frequency")), g17(truth.frequency)) << tool;
            EXPECT_EQ(g17(number_at(rep, "true_duration_s")), g17(truth.mean_duration_s))
                << tool;
            if (zing) {
                const auto z = built.zing->result();
                EXPECT_GT(z.sent, 0u);
                EXPECT_EQ(g17(number_at(rep, "est_frequency")), g17(z.loss_frequency));
                EXPECT_EQ(g17(number_at(rep, "est_duration_s")), g17(z.mean_duration_s));
                EXPECT_EQ(number_at(rep, "sent"), static_cast<double>(z.sent));
                EXPECT_EQ(number_at(rep, "lost"), static_cast<double>(z.lost));
                EXPECT_EQ(number_at(rep, "loss_runs"), static_cast<double>(z.loss_runs));
                EXPECT_EQ(number_at(rep, "max_run_length"),
                          static_cast<double>(z.max_run_length));
            }
            if (sting) {
                const auto st = built.sting->result();
                EXPECT_GT(st.bursts_completed, 0u);
                EXPECT_EQ(g17(number_at(rep, "est_frequency")), g17(st.forward_loss_rate));
                EXPECT_EQ(number_at(rep, "bursts"), static_cast<double>(st.bursts_completed));
                EXPECT_EQ(number_at(rep, "segments"), static_cast<double>(st.data_packets));
                EXPECT_EQ(number_at(rep, "holes"), static_cast<double>(st.holes_filled));
            }
        }
    }
}

}  // namespace
}  // namespace bb::scenarios

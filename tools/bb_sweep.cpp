// bb_sweep: expand a declarative sweep spec into scenario cells and run them
// through the multi-replica engine, with a content-addressed result cache.
//
//   $ bb_sweep expand examples/ablation_aqm_sweep.json
//   $ bb_sweep run examples/table4.json --out results/ --cache-dir cache/
//
// `expand` prints the grid (cell index, config hash, axis values) without
// running anything.  `run` executes every cell; cells whose hash already
// exists in --cache-dir are loaded from disk instead of recomputed, so a
// repeated run reports 100% cache hits and an edited axis value invalidates
// only the cells it actually touches.
#include <cstdio>
#include <string>

#include "core/run_hasher.h"
#include "scenarios/sweep.h"
#include "tool_common.h"
#include "util/json_io.h"

namespace {

using namespace bb;

void print_cell_line(const scenarios::SweepCell& cell, const char* status) {
    std::printf("  [%3zu] %s %s", cell.index, cell.config_hash.c_str(), status);
    for (const auto& [path, value] : cell.axis_values) {
        std::printf(" %s=%s", path.c_str(), value.c_str());
    }
    std::printf("\n");
}

// A scalar from the cell result doc's "aggregate" section by dotted path, or 0.
double aggregate_number(const JsonValue& doc, const std::string& path) {
    const JsonValue* v = json_get_path(doc, "aggregate." + path);
    return v != nullptr && v->is_number() ? v->number_value : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    FlagSet flags{"bb_sweep",
                  "config-driven experiment sweeps with a content-addressed cell cache"};
    flags.allow_positionals(2, 2, "<run|expand> <spec.json>");
    const auto* out_dir = flags.add_string("out", "sweep_results",
                                           "directory for per-cell results + <sweep>.csv summary");
    const auto* cache_dir = flags.add_string(
        "cache-dir", "", "reuse finished cells from DIR (hash-keyed JSON; \"\" = off)");
    const auto* threads = flags.add_int(
        "threads", 0, "replica worker threads per cell (0 = each cell's run.threads)");
    const auto* metrics_json =
        flags.add_string("metrics-json", "", "write obs metrics snapshot to FILE at exit");
    const auto* trace_out = flags.add_string(
        "trace-out", "", "write Chrome trace_event JSON (Perfetto-loadable) to FILE");
    const auto* series_out = flags.add_string(
        "series-out", "",
        "record per-cell sim-time series (replica 0) into DIR as "
        "<sweep>-<hash>.series.json (\"\" = off)");
    const auto* series_interval_ms = flags.add_int(
        "series-interval-ms", 100, "sim-time sampling cadence for --series-out");
    const auto* progress =
        flags.add_bool("progress", false, "print a progress line to stderr after every cell");
    const auto* progress_json_path = flags.add_string(
        "progress-json", "", "rewrite FILE with a one-object progress report after every cell");
    const auto* state_hash = flags.add_bool(
        "state-hash", false,
        "hash every computed cell's run-state chain and print the merged digest");
    const auto* hash_trace_out = flags.add_string(
        "hash-trace-out", "",
        "write the bb.hashtrace.v1 ring of the first computed cell (replica 0) to FILE");
    const auto* hash_trace_capacity = flags.add_int(
        "hash-trace-capacity", 4096, "trace-ring size for --hash-trace-out");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    const std::string& verb = flags.positionals()[0];
    const std::string& spec_path = flags.positionals()[1];
    if (verb != "run" && verb != "expand") {
        std::fprintf(stderr, "bb_sweep: unknown command '%s' (expected run or expand)\n",
                     verb.c_str());
        return 1;
    }

    tools::start_obs(!metrics_json->empty() || !trace_out->empty() || !series_out->empty(),
                     *trace_out);

    // A plain scenario spec (no "base" key) is accepted too: it is a sweep
    // with a single cell, so one schema drives both single runs and grids.
    JsonParse parsed = json_parse_file(spec_path);
    if (!parsed.ok) {
        std::fprintf(stderr, "%s\n", parsed.error.c_str());
        return 1;
    }
    scenarios::SweepParseResult sweep;
    if (parsed.value.is_object() && parsed.value.find("base") == nullptr) {
        sweep.ok = true;
        sweep.sweep.base = std::move(parsed.value);
    } else {
        sweep = scenarios::parse_sweep_spec(parsed.value, spec_path);
        if (!sweep.ok) {
            std::fprintf(stderr, "%s\n", sweep.error.c_str());
            return 1;
        }
    }
    if (sweep.sweep.name.empty() || sweep.sweep.name == "sweep") {
        sweep.sweep.name = scenarios::file_stem_or(spec_path, "sweep");
    }

    scenarios::ExpandResult grid = scenarios::expand_sweep(sweep.sweep, spec_path);
    if (!grid.ok) {
        std::fprintf(stderr, "%s\n", grid.error.c_str());
        return 1;
    }

    std::printf("sweep %s: %zu cell(s) across %zu axis(es)\n", sweep.sweep.name.c_str(),
                grid.cells.size(), sweep.sweep.axes.size());

    if (verb == "expand") {
        for (const auto& cell : grid.cells) print_cell_line(cell, "-");
        return tools::finish_obs(*metrics_json, *trace_out);
    }

    scenarios::SweepRunner::Config rc;
    rc.out_dir = *out_dir;
    rc.cache_dir = *cache_dir;
    rc.state_hash = *state_hash || !hash_trace_out->empty();
    if (!hash_trace_out->empty()) {
        rc.hash_trace_capacity =
            static_cast<std::size_t>(*hash_trace_capacity < 1 ? 1 : *hash_trace_capacity);
    }
    rc.threads = static_cast<std::size_t>(*threads < 0 ? 0 : *threads);
    if (!series_out->empty()) {
        rc.recording.enabled = true;
        rc.recording.interval =
            milliseconds(*series_interval_ms < 1 ? 1 : *series_interval_ms);
        rc.series_dir = *series_out;
    }
    const bool progress_stderr = *progress;
    const std::string progress_path = *progress_json_path;
    if (progress_stderr || !progress_path.empty()) {
        rc.progress = [progress_stderr,
                       progress_path](const scenarios::SweepProgress& p) {
            if (progress_stderr) {
                std::fprintf(stderr, "%s\n", scenarios::progress_line(p).c_str());
            }
            if (!progress_path.empty()) {
                // Atomically replaced each cell (tmp + rename inside
                // write_text_file) so watchers always see one complete JSON
                // object, never a truncated prefix.
                write_text_file(progress_path, scenarios::progress_json(p));
            }
        };
    }
    scenarios::SweepRunner runner{std::move(rc)};
    const auto outcome = runner.run(sweep.sweep.name, grid.cells);
    if (!outcome.ok) {
        std::fprintf(stderr, "bb_sweep: %s\n", outcome.error.c_str());
        return 1;
    }

    // Replica means, with the 95% bootstrap CI of each estimate.
    std::printf("\n%-5s %-16s %-8s | %-9s %-22s | %-9s %-19s | %-6s |\n", "cell", "hash",
                "state", "true freq", "est freq [95% CI]", "true dur", "est dur [95% CI]",
                "load");
    for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
        const auto& oc = outcome.cells[i];
        const auto& cell = grid.cells[i];
        const auto agg = [&oc](const char* path) { return aggregate_number(oc.result, path); };
        std::printf("%-5zu %-16s %-8s | %-9.4f %.4f [%.4f,%.4f] | %-9.3f %.3f [%.3f,%.3f] | "
                    "%.4f |",
                    oc.index, oc.config_hash.c_str(), oc.cached ? "cached" : "computed",
                    agg("true_frequency.mean"), agg("est_frequency.mean"),
                    agg("est_frequency.ci_lo"), agg("est_frequency.ci_hi"),
                    agg("true_duration_s.mean"), agg("est_duration_s.mean"),
                    agg("est_duration_s.ci_lo"), agg("est_duration_s.ci_hi"),
                    agg("offered_load.mean"));
        for (const auto& [path, value] : cell.axis_values) {
            std::printf(" %s=%s", path.c_str(), value.c_str());
        }
        std::printf("\n");
    }
    // The cells line is load-bearing: ci.sh greps "computed N" / "cached N"
    // to assert warm-cache behaviour.  "simulated N" counts the simulations
    // run: computed cells that differ only in "analysis" share one.
    std::printf("\ncells: %zu total, computed %zu, cached %zu, simulated %zu\n",
                outcome.cells.size(), outcome.computed, outcome.cached, outcome.simulated);
    if (rc.state_hash) {
        // Cached cells are not re-run and carry no digest; the merged value
        // covers computed cells only (in cell order).
        std::printf("state-hash   : %s (%zu of %zu cells hashed)\n",
                    core::RunHasher::hex(outcome.merged_state_hash).c_str(),
                    outcome.hashed_cells, outcome.cells.size());
    }
    if (!hash_trace_out->empty()) {
        if (outcome.hash_trace != nullptr &&
            write_text_file(*hash_trace_out, outcome.hash_trace->trace_json())) {
            std::printf("hash-trace   : wrote %s\n", hash_trace_out->c_str());
        } else {
            std::fprintf(stderr,
                         "bb_sweep: no hash trace to write (every cell cached?)\n");
        }
    }
    std::printf("results: %s/\n", out_dir->c_str());
    return tools::finish_obs(*metrics_json, *trace_out);
}

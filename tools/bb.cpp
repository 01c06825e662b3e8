// bb: the command-line front end of the BADABING reproduction.
//
//   $ bb sweep examples/table1.json               # one spec, prober = probe.tool
//   $ bb sweep examples/table4.json --out results/ --cache-dir cache/
//   $ bb expand examples/ablation_aqm_sweep.json  # the grid, nothing run
//   $ bb estimate --trace=run.csv --design=run.design
//   $ bb diverge a.hashtrace.json b.hashtrace.json
//   $ bb check results/*.json
//
// `sweep` executes every cell of a sweep spec (a plain scenario spec is a
// one-cell sweep) as replicas of the cell's probe.tool (badabing, zing,
// sting or none); cells whose hash already exists in --cache-dir are loaded
// from disk instead of recomputed, so a repeated run reports 100% cache hits
// and an edited axis value invalidates only the cells it actually touches.
// `check` parses every argument with the project's own util/json parser, so
// CI can assert "this file is real JSON" without python or jq.
#include "bb.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "core/run_hasher.h"
#include "core/trace_io.h"
#include "obs/control.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "scenarios/sweep.h"
#include "util/json.h"
#include "util/json_io.h"

namespace bb::tools {

ObsFlags::ObsFlags(FlagSet& f)
    : metrics_json{f.add_string("metrics-json", "",
                                "write obs metrics snapshot to FILE at exit")},
      trace_out{f.add_string("trace-out", "",
                             "write Chrome trace_event JSON (Perfetto-loadable) to FILE")} {}

void ObsFlags::start(bool recording) const {
    if (!metrics_json->empty() || !trace_out->empty() || recording) obs::set_enabled(true);
    if (!trace_out->empty()) obs::Trace::start();
}

int ObsFlags::finish() const {
    int rc = 0;
    if (!trace_out->empty()) {
        if (obs::Trace::write(*trace_out)) {
            std::printf("trace-out    : wrote %s\n", trace_out->c_str());
        } else {
            rc = 1;
        }
    }
    if (!metrics_json->empty()) {
        if (obs::write_metrics_file(*metrics_json)) {
            std::printf("metrics-json : wrote %s\n", metrics_json->c_str());
        } else {
            rc = 1;
        }
    }
    const obs::ProcessStats ps = obs::process_stats();
    std::printf("process      : max RSS %lld KiB, cpu %.2fs user %.2fs sys\n",
                static_cast<long long>(ps.max_rss_kb), ps.user_cpu_s, ps.system_cpu_s);
    return rc;
}

namespace {

constexpr const char* kUsage =
    "usage: bb <sweep|expand|estimate|diverge|check> [flags] [args]\n";

void print_help() {
    std::printf("bb - BADABING loss measurement on simulated paths (SIGCOMM'05 repro)\n\n%s\n"
                "  sweep <spec.json>       every cell of a spec or sweep spec, probed by its "
                "probe.tool,\n"
                "                          with a result cache\n"
                "  expand <spec.json>      print a sweep spec's cells without running them\n"
                "  estimate                offline estimates from a probe trace + design\n"
                "  diverge <a> <b>         first divergent record of two hash traces\n"
                "  check <file.json>...    parse JSON files and fail on any error\n\n"
                "run `bb <command> --help` for a command's flags\n",
                kUsage);
}

void print_cell_line(const scenarios::SweepCell& cell, const char* status) {
    std::printf("  [%3zu] %s %s", cell.index, cell.config_hash.c_str(), status);
    for (const auto& [path, value] : cell.axis_values) {
        std::printf(" %s=%s", path.c_str(), value.c_str());
    }
    std::printf("\n");
}

// The cells of `spec_path`: a sweep spec, or a plain scenario spec as a
// sweep with a single cell, so one schema drives both single runs and grids.
// Prints the diagnostic and returns false on error.
bool load_grid(const std::string& spec_path, scenarios::SweepSpec& sweep,
               scenarios::ExpandResult& grid) {
    scenarios::SweepParseResult r = scenarios::load_sweep_spec_file(spec_path);
    if (!r.ok) {
        std::fprintf(stderr, "%s\n", r.error.c_str());
        return false;
    }
    sweep = std::move(r.sweep);
    grid = scenarios::expand_sweep(sweep, spec_path);
    if (!grid.ok) {
        std::fprintf(stderr, "%s\n", grid.error.c_str());
        return false;
    }
    std::printf("sweep %s: %zu cell(s) across %zu axis(es)\n", sweep.name.c_str(),
                grid.cells.size(), sweep.axes.size());
    return true;
}

int expand_main(int argc, char** argv) {
    FlagSet flags{"bb expand",
                  "print a sweep spec's cells (index, config hash, axis values) without "
                  "running them"};
    flags.allow_positionals(1, 1, "<spec.json>");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;
    scenarios::SweepSpec sweep;
    scenarios::ExpandResult grid;
    if (!load_grid(flags.positionals()[0], sweep, grid)) return 1;
    for (const auto& cell : grid.cells) print_cell_line(cell, "-");
    return 0;
}

int sweep_main(int argc, char** argv) {
    FlagSet flags{"bb sweep",
                  "config-driven experiment sweeps with a content-addressed cell cache"};
    flags.allow_positionals(1, 1, "<spec.json>");
    const auto* out_dir = flags.add_string("out", "sweep_results",
                                           "directory for per-cell results + <sweep>.csv summary");
    const auto* cache_dir = flags.add_string(
        "cache-dir", "", "reuse finished cells from DIR (hash-keyed JSON; \"\" = off)");
    const auto* threads = flags.add_int(
        "threads", 0, "replica worker threads per cell (0 = each cell's run.threads)");
    const ObsFlags obs{flags};
    const auto* series_out = flags.add_string(
        "series-out", "",
        "record per-cell sim-time series (replica 0) into DIR as <sweep>-<hash>.series.json "
        "(\"\" = off)");
    const auto* series_interval_ms =
        flags.add_int("series-interval-ms", 100, "sim-time sampling cadence for --series-out");
    const auto* progress =
        flags.add_bool("progress", false, "print a progress line to stderr after every cell");
    const auto* progress_json_path = flags.add_string(
        "progress-json", "", "rewrite FILE with a one-object progress report after every cell");
    // The run-state hash chain (DESIGN.md §14).
    const auto* state_hash = flags.add_bool(
        "state-hash", false, "hash every computed cell's run-state chain and print the merged "
                             "digest");
    const auto* hash_trace_out = flags.add_string(
        "hash-trace-out", "",
        "write the bb.hashtrace.v1 ring of the first computed cell (replica 0) to FILE");
    const auto* hash_trace_capacity =
        flags.add_int("hash-trace-capacity", 4096, "trace-ring size for --hash-trace-out");
    const auto* trace = flags.add_string(
        "trace", "", "write the probe outcomes of the first computed cell (replica 0) to FILE");
    const auto* design = flags.add_string(
        "design", "", "write the experiment design of the first computed cell (replica 0) to FILE");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    const bool recording = !series_out->empty();
    const bool hashing = *state_hash || !hash_trace_out->empty();
    obs.start(recording);
    scenarios::SweepSpec sweep;
    scenarios::ExpandResult grid;
    if (!load_grid(flags.positionals()[0], sweep, grid)) return 1;

    scenarios::SweepRunner::Config rc;
    rc.out_dir = *out_dir;
    rc.cache_dir = *cache_dir;
    rc.state_hash = hashing;
    if (!hash_trace_out->empty()) {
        rc.hash_trace_capacity =
            static_cast<std::size_t>(std::max<std::int64_t>(1, *hash_trace_capacity));
    }
    rc.threads = static_cast<std::size_t>(std::max<std::int64_t>(0, *threads));
    const bool probe_log = !trace->empty() || !design->empty();
    rc.probe_log = probe_log;
    if (recording) {
        rc.recording.enabled = true;
        rc.recording.interval = milliseconds(std::max<std::int64_t>(1, *series_interval_ms));
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
    const auto outcome = runner.run(sweep.name, grid.cells);
    if (!outcome.ok) {
        std::fprintf(stderr, "bb sweep: %s\n", outcome.error.c_str());
        return 1;
    }

    std::printf("\n%s", scenarios::summary_table(grid.cells, outcome.cells).c_str());
    // The cells line is load-bearing: ci.sh greps "computed N" / "cached N"
    // to assert warm-cache behaviour.  "simulated N" counts the simulations
    // (or synthetic streams) run: computed cells that differ only in
    // "analysis" share one.
    std::printf("\ncells: %zu total, computed %zu, cached %zu, simulated %zu\n",
                outcome.cells.size(), outcome.computed, outcome.cached, outcome.simulated);
    if (hashing) {
        // Cached cells are not re-run and carry no digest; the merged value
        // covers computed cells only (in cell order).  With none computed it
        // would be the empty merge, which is no digest at all.
        if (outcome.hashed_cells == 0) {
            std::fprintf(stderr, "bb sweep: no cell was computed, so there is no run-state "
                                 "digest (every cell cached?)\n");
            return 1;
        }
        std::printf("state-hash   : %s (%zu of %zu cells hashed)\n",
                    core::RunHasher::hex(outcome.merged_state_hash).c_str(),
                    outcome.hashed_cells, outcome.cells.size());
    }
    if (!hash_trace_out->empty()) {
        if (outcome.hash_trace == nullptr ||
            !write_text_file(*hash_trace_out, outcome.hash_trace->trace_json())) {
            std::fprintf(stderr, "bb sweep: no hash trace written to %s\n",
                         hash_trace_out->c_str());
            return 1;
        }
        std::printf("hash-trace   : wrote %s\n", hash_trace_out->c_str());
    }
    if (probe_log) {
        if (outcome.probe_log == nullptr) {
            std::fprintf(stderr, "bb sweep: no probe log to write (every cell cached?)\n");
            return 1;
        }
        try {
            if (!trace->empty()) {
                core::write_trace_file(*trace, outcome.probe_log->outcomes);
                std::printf("trace        : wrote %s\n", trace->c_str());
            }
            if (!design->empty()) {
                core::write_design_file(*design, outcome.probe_log->design);
                std::printf("design       : wrote %s\n", design->c_str());
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "bb sweep: %s\n", e.what());
            return 1;
        }
    }
    std::printf("results: %s/\n", out_dir->c_str());
    return obs.finish();
}

// Exit 0 when every file parses; 1 otherwise (each failure is one line on
// stderr, in the parser's "<file>:<line>:<col>: <why>" format).
int check_main(int argc, char** argv) {
    FlagSet flags{"bb check", "parse JSON files with util/json and fail on any error"};
    flags.allow_positionals(1, 1024, "<file.json>...");
    const auto* require_key = flags.add_string(
        "require-key", "", "every document must have this top-level key");
    const auto* quiet = flags.add_bool("quiet", false, "suppress the per-file OK lines");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    int rc = 0;
    for (const std::string& path : flags.positionals()) {
        const JsonParse parsed = json_parse_file(path);
        if (!parsed.ok) {
            std::fprintf(stderr, "%s\n", parsed.error.c_str());
            rc = 1;
            continue;
        }
        if (!require_key->empty() &&
            (!parsed.value.is_object() || parsed.value.find(*require_key) == nullptr)) {
            std::fprintf(stderr, "%s: missing required top-level key \"%s\"\n",
                         path.c_str(), require_key->c_str());
            rc = 1;
            continue;
        }
        if (!*quiet) std::printf("%s: OK\n", path.c_str());
    }
    return rc;
}

}  // namespace

}  // namespace bb::tools

int main(int argc, char** argv) {
    using namespace bb::tools;
    struct Command {
        const char* name;
        int (*main)(int, char**);
    };
    static constexpr Command kCommands[] = {
        {"sweep", sweep_main},       {"expand", expand_main},   {"estimate", estimate_main},
        {"diverge", diverge_main},   {"check", check_main},
    };
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0)) {
        print_help();
        return 0;
    }
    for (const Command& c : kCommands) {
        if (argc >= 2 && std::strcmp(argv[1], c.name) == 0) return c.main(argc - 1, argv + 1);
    }
    if (argc >= 2) std::fprintf(stderr, "bb: unknown command '%s'\n", argv[1]);
    std::fprintf(stderr, "%srun `bb --help` for the commands\n", kUsage);
    return 2;
}

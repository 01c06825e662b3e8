// micro_stream: batch vs streaming measurement-pipeline throughput.
//
// Runs the same synthetic-congestion estimation twice per slot count — once
// through the batch path (materialize series, design, and report vectors,
// then run the batch estimators) and once through the streaming path
// (SyntheticSeriesGen -> StreamingExperimentScorer -> StreamingAnalyzer,
// O(1) memory) — checks the estimates agree exactly, and reports throughput.
//
//   BB_BENCH_STREAM_SLOTS  largest slot count exercised (default 10'000'000)
//   BB_BENCH_STREAM_REPS   timed reps per size, best-of (default 3)
//   BB_BENCH_JSON          directory for BENCH_micro_stream.json (default .)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/estimators.h"
#include "core/probe_process.h"
#include "core/streaming.h"
#include "core/synthetic.h"
#include "obs/process_stats.h"
#include "util/json.h"
#include "util/json_io.h"
#include "util/rng.h"

namespace {

using namespace bb;

constexpr std::uint64_t kSeriesSeed = 0x5EED5;
constexpr std::uint64_t kDesignSeed = 0xBADA0;
constexpr double kMeanOnSlots = 20.0;
constexpr double kMeanOffSlots = 180.0;

std::int64_t env_int(const char* name, std::int64_t fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::atoll(v) : fallback;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

struct Row {
    std::int64_t slots{0};
    double batch_ms{0.0};
    double stream_ms{0.0};
    double est_frequency{0.0};
    std::uint64_t reports{0};
    bool identical{false};
};

Row run_size_once(std::int64_t slots, const core::ProbeProcessConfig& pcfg) {
    Row row;
    row.slots = slots;

    // --- batch: materialize everything, then estimate -----------------------
    const auto t0 = std::chrono::steady_clock::now();
    Rng series_rng{kSeriesSeed};
    const std::vector<bool> series =
        core::synth_congestion_series(series_rng, slots, kMeanOnSlots, kMeanOffSlots);
    Rng design_rng{kDesignSeed};
    const core::ProbeDesign design = core::design_probe_process(design_rng, slots, pcfg);
    const auto reports = core::score_experiments(
        design.experiments,
        [&series](core::SlotIndex s) { return series[static_cast<std::size_t>(s)]; });
    core::StateCounts counts;
    for (const auto& r : reports) counts.add(r);
    const auto batch_freq = core::estimate_frequency(counts);
    const auto batch_dur = core::estimate_duration_basic(counts);
    row.batch_ms = ms_since(t0);

    // --- streaming: one slot at a time, O(1) memory --------------------------
    const auto t1 = std::chrono::steady_clock::now();
    core::SyntheticSeriesGen gen{Rng{kSeriesSeed}, kMeanOnSlots, kMeanOffSlots};
    core::StreamingAnalyzer analyzer;
    core::StreamingExperimentScorer scorer{Rng{kDesignSeed}, pcfg, analyzer};
    for (std::int64_t s = 0; s < slots; ++s) scorer.step(gen.next());
    const auto stream_res = analyzer.finalize();
    row.stream_ms = ms_since(t1);

    row.est_frequency = stream_res.frequency.value;
    row.reports = stream_res.reports;
    row.identical = stream_res.frequency.value == batch_freq.value &&
                    stream_res.frequency.samples == batch_freq.samples &&
                    stream_res.duration_basic.slots == batch_dur.slots &&
                    stream_res.reports == reports.size();
    return row;
}

// Best-of-N timing (identity flags must hold on every rep): single samples of
// multi-hundred-ms loops swing by ±20% on a busy machine, the min does not.
Row run_size(std::int64_t slots, const core::ProbeProcessConfig& pcfg, std::int64_t reps) {
    Row best = run_size_once(slots, pcfg);
    for (std::int64_t r = 1; r < reps; ++r) {
        Row next = run_size_once(slots, pcfg);
        next.batch_ms = std::min(next.batch_ms, best.batch_ms);
        next.stream_ms = std::min(next.stream_ms, best.stream_ms);
        next.identical = next.identical && best.identical;
        best = next;
    }
    return best;
}

}  // namespace

int main() {
    const std::int64_t max_slots = env_int("BB_BENCH_STREAM_SLOTS", 10'000'000);
    const std::int64_t reps = std::max<std::int64_t>(1, env_int("BB_BENCH_STREAM_REPS", 3));

    core::ProbeProcessConfig pcfg;
    pcfg.p = 0.3;
    pcfg.improved = true;

    std::vector<std::int64_t> sizes{100'000, 1'000'000};
    if (max_slots > sizes.back()) sizes.push_back(max_slots);

    std::printf("micro_stream: batch vs streaming pipeline (p = %.1f, improved)\n", pcfg.p);
    std::printf("%-12s | %-10s | %-10s | %-9s | %-10s | %s\n", "slots", "batch ms",
                "stream ms", "ratio", "Mslots/s", "identical");
    std::printf("----------------------------------------------------------------------\n");

    std::vector<Row> rows;
    for (const std::int64_t slots : sizes) {
        const Row row = run_size(slots, pcfg, reps);
        rows.push_back(row);
        std::printf("%-12lld | %-10.1f | %-10.1f | %-9.2f | %-10.2f | %s\n",
                    static_cast<long long>(row.slots), row.batch_ms, row.stream_ms,
                    row.batch_ms > 0 ? row.stream_ms / row.batch_ms : 0.0,
                    row.stream_ms > 0 ? static_cast<double>(row.slots) / row.stream_ms / 1e3
                                      : 0.0,
                    row.identical ? "yes" : "NO");
        if (!row.identical) {
            std::fprintf(stderr, "micro_stream: batch/stream estimates DIVERGED at %lld "
                                 "slots\n",
                         static_cast<long long>(row.slots));
            return 1;
        }
    }

    const char* dir = std::getenv("BB_BENCH_JSON");
    std::string path{dir != nullptr ? dir : "."};
    if (path.empty() || path == "1") path = ".";
    path += "/BENCH_micro_stream.json";
    JsonWriter w{JsonWriter::Options{2, true}};
    w.begin_object();
    w.key("bench").value("micro_stream");
    w.key("rows").begin_array();
    for (const auto& row : rows) {
        w.begin_object_inline();
        w.key("slots").value_int(row.slots);
        w.key("batch_ms").value_double(row.batch_ms, "%.3f");
        w.key("stream_ms").value_double(row.stream_ms, "%.3f");
        w.key("reports").value_uint(row.reports);
        w.key("est_frequency").value_double(row.est_frequency, "%.8f");
        w.key("identical").value(row.identical);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!write_text_file(path, w.str() + "\n")) {
        std::fprintf(stderr, "micro_stream: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("json: wrote %s\n", path.c_str());
    const obs::ProcessStats ps = obs::process_stats();
    std::printf("process: max RSS %lld KiB, cpu %.2fs user %.2fs sys\n",
                static_cast<long long>(ps.max_rss_kb), ps.user_cpu_s, ps.system_cpu_s);
    return 0;
}

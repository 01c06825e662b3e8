// micro_obs: instrumentation overhead on the streaming measurement hot loop.
//
// Runs the same synthetic pipeline as micro_stream (SyntheticSeriesGen ->
// StreamingExperimentScorer -> StreamingAnalyzer) twice per repetition: once
// with the obs kill switch off (BB_OBS=off semantics via obs::set_enabled)
// and once with metrics enabled.  Asserts the estimates are bit-identical in
// both modes and that the instrumented run costs < 5% extra (best-of-N to
// shave scheduler noise).
//
//   BB_OBS_BENCH_SLOTS   slots per run (default 5'000'000)
//   BB_OBS_BENCH_REPS    repetitions, best-of (default 3)
//   BB_OBS_BENCH_GATE    "off" skips the <5% timing assert (CI smoke mode)
//   BB_BENCH_JSON        directory for BENCH_micro_obs.json (default .)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/probe_process.h"
#include "core/streaming.h"
#include "core/synthetic.h"
#include "obs/control.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "obs/process_stats.h"
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

struct RunResult {
    double ms{0.0};
    double est_frequency{0.0};
    std::uint64_t est_samples{0};
    double est_duration_slots{0.0};
    std::uint64_t reports{0};
};

RunResult run_once(std::int64_t slots, bool obs_on) {
    obs::set_enabled(obs_on);

    core::ProbeProcessConfig pcfg;
    pcfg.p = 0.3;
    pcfg.improved = true;

    const auto t0 = std::chrono::steady_clock::now();
    core::SyntheticSeriesGen gen{Rng{kSeriesSeed}, kMeanOnSlots, kMeanOffSlots};
    core::StreamingAnalyzer analyzer;
    core::StreamingExperimentScorer scorer{Rng{kDesignSeed}, pcfg, analyzer};
    for (std::int64_t s = 0; s < slots; ++s) scorer.step(gen.next());
    const auto res = analyzer.finalize();
    RunResult out;
    out.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                 .count();
    out.est_frequency = res.frequency.value;
    out.est_samples = res.frequency.samples;
    out.est_duration_slots = res.duration_basic.slots;
    out.reports = res.reports;
    return out;
}

}  // namespace

int main() {
    const std::int64_t slots = env_int("BB_OBS_BENCH_SLOTS", 5'000'000);
    const std::int64_t reps = env_int("BB_OBS_BENCH_REPS", 3);
    const char* gate_env = std::getenv("BB_OBS_BENCH_GATE");
    const bool gate = gate_env == nullptr || std::strcmp(gate_env, "off") != 0;

    std::printf("micro_obs: instrumentation overhead on the streaming hot loop "
                "(%lld slots, best of %lld)\n",
                static_cast<long long>(slots), static_cast<long long>(reps));

    RunResult off{};
    RunResult on{};
    double best_off = -1.0;
    double best_on = -1.0;
    for (std::int64_t r = 0; r < reps; ++r) {
        const RunResult a = run_once(slots, false);
        const RunResult b = run_once(slots, true);
        if (best_off < 0 || a.ms < best_off) {
            best_off = a.ms;
            off = a;
        }
        if (best_on < 0 || b.ms < best_on) {
            best_on = b.ms;
            on = b;
        }
    }
    obs::set_enabled(true);

    // The kill switch must never change what is computed.
    if (off.est_frequency != on.est_frequency || off.est_samples != on.est_samples ||
        off.est_duration_slots != on.est_duration_slots || off.reports != on.reports) {
        std::fprintf(stderr, "micro_obs: estimates DIVERGED between BB_OBS=off and on\n");
        return 1;
    }
    // And the counters must account for every report exactly.
    const std::uint64_t scored = obs::counter("core.reports_scored").value();
    if (scored == 0) {
        std::fprintf(stderr, "micro_obs: core.reports_scored was never incremented\n");
        return 1;
    }

    const double overhead =
        off.ms > 0.0 ? (on.ms - off.ms) / off.ms : 0.0;
    std::printf("%-14s | %-10s | %-10s | %s\n", "mode", "ms", "Mslots/s", "reports");
    std::printf("---------------------------------------------------\n");
    std::printf("%-14s | %-10.1f | %-10.2f | %llu\n", "BB_OBS=off", off.ms,
                off.ms > 0 ? static_cast<double>(slots) / off.ms / 1e3 : 0.0,
                static_cast<unsigned long long>(off.reports));
    std::printf("%-14s | %-10.1f | %-10.2f | %llu\n", "instrumented", on.ms,
                on.ms > 0 ? static_cast<double>(slots) / on.ms / 1e3 : 0.0,
                static_cast<unsigned long long>(on.reports));
    std::printf("overhead: %.2f%% (budget 5%%%s)\n", overhead * 100.0,
                gate ? "" : ", gate off");
    const obs::ProcessStats ps = obs::process_stats();
    std::printf("process : max RSS %lld KiB, cpu %.2fs user %.2fs sys\n",
                static_cast<long long>(ps.max_rss_kb), ps.user_cpu_s, ps.system_cpu_s);

    const char* dir = std::getenv("BB_BENCH_JSON");
    std::string path{dir != nullptr ? dir : "."};
    if (path.empty() || path == "1") path = ".";
    path += "/BENCH_micro_obs.json";
    JsonWriter w{JsonWriter::Options{2, true}};
    w.begin_object();
    w.key("bench").value("micro_obs");
    w.key("slots").value_int(static_cast<std::int64_t>(slots));
    w.key("off_ms").value_double(off.ms, "%.3f");
    w.key("on_ms").value_double(on.ms, "%.3f");
    w.key("overhead_fraction").value_double(overhead, "%.5f");
    w.key("reports").value_uint(on.reports);
    w.key("reports_scored_counter").value_uint(scored);
    w.key("identical").value(true);
    w.end_object();
    if (!write_text_file(path, w.str() + "\n")) {
        std::fprintf(stderr, "micro_obs: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("json: wrote %s\n", path.c_str());

    if (gate && overhead > 0.05) {
        std::fprintf(stderr, "micro_obs: overhead %.2f%% exceeds the 5%% budget\n",
                     overhead * 100.0);
        return 1;
    }
    return 0;
}

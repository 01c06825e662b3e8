// micro_record: recorder overhead on a full simulated experiment.
//
// Runs the same cbr_uniform BADABING experiment (a spec document on the
// default dumbbell, seed 7, built by build_experiment) three ways per
// repetition:
// with no recorder attached (baseline), with an ExperimentRecorder sampling
// at the default cadence (recorded), and with a recorder attached while the
// BB_OBS kill switch is off (killed — must reduce to one cached-bool branch).
// Asserts ground truth, queue drops, and the BADABING estimate are
// bit-identical across all three modes, then gates the recorded run at < 5%
// wall overhead over baseline (best-of-N to shave scheduler noise).
//
//   BB_RECORD_BENCH_SECONDS   simulated seconds per run (default 1200 — long
//                             enough that the timed region is ~150 ms wall and
//                             scheduler jitter stays well under the 5% gate)
//   BB_RECORD_BENCH_REPS      repetitions, best-of (default 3)
//   BB_RECORD_BENCH_GATE      "off" skips the <5% timing assert (CI smoke mode)
//   BB_BENCH_JSON             directory for BENCH_micro_record.json (default .)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "obs/control.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"
#include "util/json.h"
#include "util/json_io.h"

namespace {

using namespace bb;

std::int64_t env_int(const char* name, std::int64_t fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::atoll(v) : fallback;
}

enum class Mode { baseline, recorded, killed };

struct RunResult {
    double ms{0.0};
    double true_frequency{0.0};
    std::size_t episodes{0};
    std::uint64_t queue_drops{0};
    double est_frequency{0.0};
    std::uint64_t probes_sent{0};
    std::uint64_t recorder_samples{0};
};

RunResult run_once(const scenarios::ScenarioSpec& spec, Mode mode) {
    obs::set_enabled(mode != Mode::killed);

    const auto t0 = std::chrono::steady_clock::now();
    const scenarios::BuiltExperiment built = scenarios::build_experiment(spec);
    scenarios::Experiment& exp = *built.experiment;
    const probes::BadabingTool& tool = *built.badabing;
    std::unique_ptr<scenarios::ExperimentRecorder> recording;
    if (mode != Mode::baseline) {
        scenarios::SimRecordingConfig rc;
        rc.enabled = true;  // default cadence; the kill switch decides for `killed`
        recording = std::make_unique<scenarios::ExperimentRecorder>(exp, rc);
    }
    exp.run();
    if (recording) recording->finish();

    RunResult out;
    out.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                 .count();
    const auto truth = exp.truth();
    out.true_frequency = truth.frequency;
    out.episodes = truth.episodes;
    out.queue_drops = exp.testbed().bottleneck().drops();
    out.est_frequency = tool.analyze(scenarios::marking_for(spec), {}).frequency.value;
    out.probes_sent = tool.probes_sent();
    if (recording) out.recorder_samples = recording->recorder().samples();
    obs::set_enabled(true);
    return out;
}

bool identical(const RunResult& a, const RunResult& b) {
    return a.true_frequency == b.true_frequency && a.episodes == b.episodes &&
           a.queue_drops == b.queue_drops && a.est_frequency == b.est_frequency &&
           a.probes_sent == b.probes_sent;
}

}  // namespace

int main() {
    const std::int64_t seconds = env_int("BB_RECORD_BENCH_SECONDS", 1200);
    const std::int64_t reps = env_int("BB_RECORD_BENCH_REPS", 3);
    const char* gate_env = std::getenv("BB_RECORD_BENCH_GATE");
    const bool gate = gate_env == nullptr || std::strcmp(gate_env, "off") != 0;

    const std::string doc = R"({"traffic": {"kind": "cbr_uniform", "duration_s": )" +
                            std::to_string(seconds) +
                            R"(}, "probe": {"badabing": {"p": 0.3}}})";
    const auto parsed = scenarios::load_scenario_spec_text(doc, "micro_record");
    if (!parsed.ok) {
        std::fprintf(stderr, "%s\n", parsed.error.c_str());
        return 1;
    }

    std::printf("micro_record: recorder overhead on a %llds cbr experiment "
                "(best of %lld)\n",
                static_cast<long long>(seconds), static_cast<long long>(reps));

    RunResult base{};
    RunResult rec{};
    RunResult kill{};
    double best_base = -1.0;
    double best_rec = -1.0;
    double best_kill = -1.0;
    for (std::int64_t r = 0; r < reps; ++r) {
        const RunResult a = run_once(parsed.spec, Mode::baseline);
        const RunResult b = run_once(parsed.spec, Mode::recorded);
        const RunResult c = run_once(parsed.spec, Mode::killed);
        if (best_base < 0 || a.ms < best_base) {
            best_base = a.ms;
            base = a;
        }
        if (best_rec < 0 || b.ms < best_rec) {
            best_rec = b.ms;
            rec = b;
        }
        if (best_kill < 0 || c.ms < best_kill) {
            best_kill = c.ms;
            kill = c;
        }
    }

    // Recording only reads state: every estimate must be bit-identical.
    if (!identical(base, rec) || !identical(base, kill)) {
        std::fprintf(stderr, "micro_record: estimates DIVERGED across recorder modes\n");
        return 1;
    }
    if (rec.recorder_samples == 0) {
        std::fprintf(stderr, "micro_record: recorded run took no samples\n");
        return 1;
    }
    if (kill.recorder_samples != 0) {
        std::fprintf(stderr, "micro_record: BB_OBS=off recorder still sampled\n");
        return 1;
    }

    const double overhead = base.ms > 0.0 ? (rec.ms - base.ms) / base.ms : 0.0;
    const double kill_delta = base.ms > 0.0 ? (kill.ms - base.ms) / base.ms : 0.0;
    std::printf("%-12s | %-10s | %-8s | %s\n", "mode", "ms", "samples", "est freq");
    std::printf("------------------------------------------------\n");
    std::printf("%-12s | %-10.1f | %-8llu | %.6f\n", "baseline", base.ms,
                static_cast<unsigned long long>(base.recorder_samples),
                base.est_frequency);
    std::printf("%-12s | %-10.1f | %-8llu | %.6f\n", "recorded", rec.ms,
                static_cast<unsigned long long>(rec.recorder_samples), rec.est_frequency);
    std::printf("%-12s | %-10.1f | %-8llu | %.6f\n", "BB_OBS=off", kill.ms,
                static_cast<unsigned long long>(kill.recorder_samples),
                kill.est_frequency);
    std::printf("overhead: recorded %.2f%%, killed %.2f%% (budget 5%%%s)\n",
                overhead * 100.0, kill_delta * 100.0, gate ? "" : ", gate off");

    const char* dir = std::getenv("BB_BENCH_JSON");
    std::string path{dir != nullptr ? dir : "."};
    if (path.empty() || path == "1") path = ".";
    path += "/BENCH_micro_record.json";
    JsonWriter w{JsonWriter::Options{2, true}};
    w.begin_object();
    w.key("bench").value("micro_record");
    w.key("seconds").value_int(seconds);
    w.key("baseline_ms").value_double(base.ms, "%.3f");
    w.key("recorded_ms").value_double(rec.ms, "%.3f");
    w.key("killed_ms").value_double(kill.ms, "%.3f");
    w.key("overhead_fraction").value_double(overhead, "%.5f");
    w.key("killed_delta_fraction").value_double(kill_delta, "%.5f");
    w.key("recorder_samples").value_uint(rec.recorder_samples);
    w.key("identical").value(true);
    w.end_object();
    if (!write_text_file(path, w.str() + "\n")) {
        std::fprintf(stderr, "micro_record: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("json: wrote %s\n", path.c_str());

    if (gate && overhead > 0.05) {
        std::fprintf(stderr, "micro_record: overhead %.2f%% exceeds the 5%% budget\n",
                     overhead * 100.0);
        return 1;
    }
    return 0;
}

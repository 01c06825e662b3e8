#include "tool_common.h"

#include <algorithm>
#include <cstdio>

#include "obs/control.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "util/json_io.h"

namespace bb::tools {

namespace {

// The --scenario vocabulary, shared by every simulated-run tool.
bool apply_scenario_name(const std::string& name, scenarios::WorkloadConfig& wl) {
    using scenarios::TrafficKind;
    if (name == "tcp") {
        wl.kind = TrafficKind::infinite_tcp;
    } else if (name == "cbr") {
        wl.kind = TrafficKind::cbr_uniform;
    } else if (name == "cbr-multi") {
        wl.kind = TrafficKind::cbr_multi;
        wl.episode_durations = {milliseconds(50), milliseconds(100), milliseconds(150)};
    } else if (name == "web") {
        wl.kind = TrafficKind::web;
    } else {
        return false;
    }
    return true;
}

}  // namespace

SimRunFlags::SimRunFlags(FlagSet& f)
    : flags{&f},
      spec_path{f.add_string("spec", "",
                             "load a declarative scenario spec FILE; explicit flags edit it")},
      scenario{f.add_string("scenario", "cbr", "traffic: tcp | cbr | cbr-multi | web")},
      duration_s{f.add_int("duration-s", 900, "measured interval, seconds")},
      rate_mbps{f.add_int("rate-mbps", 30, "bottleneck rate, Mb/s")},
      seed{f.add_int("seed", 7, "RNG seed (workload, probes and randomized queue drops)")},
      metrics_json{
          f.add_string("metrics-json", "", "write obs metrics snapshot to FILE at exit")},
      trace_out{f.add_string("trace-out", "",
                             "write Chrome trace_event JSON (Perfetto-loadable) to FILE")},
      series_out{f.add_string(
          "series-out", "",
          "record sim-time series (queue, drops, GE state, probe tallies) to FILE")},
      series_interval_ms{f.add_int("series-interval-ms", 100,
                                   "sim-time sampling cadence for --series-out")},
      state_hash{f.add_bool("state-hash", false,
                            "fold the run-state hash chain (events, rng, verdicts, "
                            "reports) and print the final digest")},
      hash_trace_out{f.add_string(
          "hash-trace-out", "", "write the bb.hashtrace.v1 ring of recent chain records to FILE")},
      hash_trace_capacity{
          f.add_int("hash-trace-capacity", 4096, "trace-ring size for --hash-trace-out")} {}

std::optional<scenarios::ScenarioSpec> SimRunFlags::spec() const {
    const bool have_spec = !spec_path->empty();
    scenarios::SpecResult sr = have_spec
                                   ? scenarios::load_scenario_spec_file(*spec_path)
                                   : scenarios::load_scenario_spec_text("{}", "<defaults>");
    if (!sr.ok) {
        std::fprintf(stderr, "%s\n", sr.error.c_str());
        return std::nullopt;
    }
    scenarios::ScenarioSpec& spec = sr.spec;
    if (spec.topology != scenarios::ScenarioSpec::Topology::dumbbell) {
        std::fprintf(stderr, "%s: only the dumbbell topology hosts a single run\n",
                     spec_path->c_str());
        return std::nullopt;
    }
    if (flags->is_set("scenario") && !apply_scenario_name(*scenario, spec.workload)) {
        std::fprintf(stderr, "unknown --scenario '%s'\n", scenario->c_str());
        return std::nullopt;
    }
    if (!have_spec) spec.truth.delay_based = spec.workload.kind == scenarios::TrafficKind::web;
    if (flags->is_set("duration-s")) spec.workload.duration = seconds_i(*duration_s);
    if (flags->is_set("rate-mbps")) spec.testbed.bottleneck_rate_bps = *rate_mbps * 1'000'000;
    if (flags->is_set("seed")) {
        spec.seed = static_cast<std::uint64_t>(*seed);
        spec.workload.seed = spec.seed;
    }
    // A single run draws its randomized queue drops (RED/PIE/GE) from the
    // run seed too, so a flag-built run and its spec file are the same run.
    spec.testbed.seed = spec.seed;
    return std::move(spec);
}

void SimRunFlags::start_obs() const {
    tools::start_obs(!metrics_json->empty() || !trace_out->empty() || !series_out->empty(),
                     *trace_out);
}

int SimRunFlags::finish_obs() const { return tools::finish_obs(*metrics_json, *trace_out); }

std::unique_ptr<scenarios::ExperimentRecorder> SimRunFlags::run(
    scenarios::Experiment& exp) const {
    std::unique_ptr<scenarios::ExperimentRecorder> recording;
    if (!series_out->empty()) {
        scenarios::SimRecordingConfig cfg;
        cfg.enabled = true;
        cfg.interval = milliseconds(*series_interval_ms < 1 ? 1 : *series_interval_ms);
        recording = std::make_unique<scenarios::ExperimentRecorder>(exp, cfg);
    }
    exp.run();
    if (recording) recording->finish();
    return recording;
}

int SimRunFlags::write_series(scenarios::ExperimentRecorder* recording) const {
    if (recording == nullptr) return 0;
    recording->recorder().export_to_trace();
    if (!recording->recorder().write_json(*series_out)) return 1;
    std::printf("series       : wrote %s\n", series_out->c_str());
    return 0;
}

RunHash::RunHash(const SimRunFlags& cli) : trace_path_{*cli.hash_trace_out} {
    if (!*cli.state_hash && trace_path_.empty()) return;
    const std::int64_t ring = trace_path_.empty() ? 0 : std::max<std::int64_t>(
                                                            1, *cli.hash_trace_capacity);
    hasher_.emplace(static_cast<std::size_t>(ring));
    scope_.emplace(*hasher_);
}

int RunHash::report() const {
    if (!hasher_) return 0;
    std::printf("state-hash   : %s (%llu records)\n",
                core::RunHasher::hex(hasher_->digest()).c_str(),
                static_cast<unsigned long long>(hasher_->records()));
    if (trace_path_.empty()) return 0;
    if (!write_text_file(trace_path_, hasher_->trace_json())) return 1;
    std::printf("hash-trace   : wrote %s\n", trace_path_.c_str());
    return 0;
}

void start_obs(bool exporting, const std::string& trace_path) {
    if (exporting) obs::set_enabled(true);
    if (!trace_path.empty()) obs::Trace::start();
}

int finish_obs(const std::string& metrics_path, const std::string& trace_path) {
    int rc = 0;
    if (!trace_path.empty()) {
        if (obs::Trace::write(trace_path)) {
            std::printf("trace-out    : wrote %s\n", trace_path.c_str());
        } else {
            rc = 1;
        }
    }
    if (!metrics_path.empty()) {
        if (obs::write_metrics_file(metrics_path)) {
            std::printf("metrics-json : wrote %s\n", metrics_path.c_str());
        } else {
            rc = 1;
        }
    }
    const obs::ProcessStats ps = obs::process_stats();
    std::printf("process      : max RSS %lld KiB, cpu %.2fs user %.2fs sys\n",
                static_cast<long long>(ps.max_rss_kb), ps.user_cpu_s, ps.system_cpu_s);
    return rc;
}

}  // namespace bb::tools

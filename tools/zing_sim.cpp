// zing_sim: run a classical Poisson prober (ZING) against the same simulated
// paths, for side-by-side comparison with badabing_sim.
//
//   $ zing_sim --scenario=tcp --hz=10 --packet-bytes=256 --duration-s=900
//   $ zing_sim --spec examples/table1.json                   # Table 1, 10 Hz row
//   $ zing_sim --spec examples/table1.json --hz=20 --packet-bytes=64   # 20 Hz row
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "core/delay_stats.h"
#include "core/run_hasher.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "scenarios/experiment.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"
#include "util/flags.h"
#include "util/json_io.h"

int main(int argc, char** argv) {
    using namespace bb;

    FlagSet flags{"zing_sim",
                  "Poisson-modulated loss probing on a simulated dumbbell (SIGCOMM'05 repro)"};
    const auto* spec_path = flags.add_string(
        "spec", "", "load a declarative scenario spec FILE; explicit flags override it");
    const auto* scenario =
        flags.add_string("scenario", "cbr", "traffic: tcp | cbr | cbr-multi | web");
    const auto* hz = flags.add_double("hz", 10.0, "mean probe rate, probes per second");
    const auto* packet_bytes = flags.add_int("packet-bytes", 256, "probe payload size");
    const auto* flight = flags.add_int("flight", 1, "packets per flight");
    const auto* duration_s = flags.add_int("duration-s", 900, "measured interval, seconds");
    const auto* rate_mbps = flags.add_int("rate-mbps", 30, "bottleneck rate, Mb/s");
    const auto* seed = flags.add_int("seed", 7, "RNG seed");
    const auto* metrics_json =
        flags.add_string("metrics-json", "", "write obs metrics snapshot to FILE at exit");
    const auto* trace_out = flags.add_string(
        "trace-out", "", "write Chrome trace_event JSON (Perfetto-loadable) to FILE");
    const auto* series_out = flags.add_string(
        "series-out", "",
        "record sim-time series (queue, drops, GE state) to FILE");
    const auto* series_interval_ms = flags.add_int(
        "series-interval-ms", 100, "sim-time sampling cadence for --series-out");
    const auto* state_hash = flags.add_bool(
        "state-hash", false,
        "fold the run-state hash chain (events, rng, verdicts, reports) and print "
        "the final digest");
    const auto* hash_trace_out = flags.add_string(
        "hash-trace-out", "",
        "write the bb.hashtrace.v1 ring of recent chain records to FILE");
    const auto* hash_trace_capacity = flags.add_int(
        "hash-trace-capacity", 4096, "trace-ring size for --hash-trace-out");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    const bool want_hash = *state_hash || !hash_trace_out->empty();
    const auto trace_ring = static_cast<std::size_t>(
        hash_trace_out->empty() ? 0 : (*hash_trace_capacity < 1 ? 1 : *hash_trace_capacity));

    // Explicit export flags beat the ambient BB_OBS kill switch.
    if (!metrics_json->empty() || !trace_out->empty() || !series_out->empty()) {
        obs::set_enabled(true);
    }
    if (!trace_out->empty()) obs::Trace::start();

    // --spec supplies every layer's configuration; any flag the user also
    // sets explicitly wins over the spec's value.
    scenarios::ScenarioSpec spec;
    bool have_spec = false;
    if (!spec_path->empty()) {
        auto sr = scenarios::load_scenario_spec_file(*spec_path);
        if (!sr.ok) {
            std::fprintf(stderr, "%s\n", sr.error.c_str());
            return 1;
        }
        spec = std::move(sr.spec);
        have_spec = true;
    }

    scenarios::TestbedConfig tb = have_spec ? spec.testbed : scenarios::TestbedConfig{};
    if (!have_spec || flags.is_set("rate-mbps")) {
        tb.bottleneck_rate_bps = *rate_mbps * 1'000'000;
    }

    scenarios::WorkloadConfig wl = have_spec ? spec.workload : scenarios::WorkloadConfig{};
    if (!have_spec || flags.is_set("scenario")) {
        if (*scenario == "tcp") {
            wl.kind = scenarios::TrafficKind::infinite_tcp;
        } else if (*scenario == "cbr") {
            wl.kind = scenarios::TrafficKind::cbr_uniform;
        } else if (*scenario == "cbr-multi") {
            wl.kind = scenarios::TrafficKind::cbr_multi;
            wl.episode_durations = {milliseconds(50), milliseconds(100), milliseconds(150)};
        } else if (*scenario == "web") {
            wl.kind = scenarios::TrafficKind::web;
        } else {
            std::fprintf(stderr, "unknown --scenario '%s'\n", scenario->c_str());
            return 1;
        }
    }
    if (!have_spec || flags.is_set("duration-s")) wl.duration = seconds_i(*duration_s);
    if (!have_spec || flags.is_set("seed")) wl.seed = static_cast<std::uint64_t>(*seed);

    scenarios::TruthConfig tc = have_spec ? spec.truth : scenarios::TruthConfig{};
    if (!have_spec) tc.delay_based = wl.kind == scenarios::TrafficKind::web;

    // The whole world lives on this thread, so one scope covers construction,
    // run, and analysis.
    std::optional<core::RunHasher> hasher;
    std::optional<core::HashScope> hash_scope;
    if (want_hash) {
        hasher.emplace(trace_ring);
        hash_scope.emplace(*hasher);
    }
    scenarios::Experiment exp{tb, wl, tc};
    probes::ZingProber::Config zc = have_spec ? spec.zing : probes::ZingProber::Config{};
    if (!have_spec || flags.is_set("hz")) zc.mean_interval = seconds(1.0 / *hz);
    if (!have_spec || flags.is_set("packet-bytes")) {
        zc.packet_bytes = static_cast<std::int32_t>(*packet_bytes);
    }
    if (!have_spec || flags.is_set("flight")) zc.packets_per_flight = static_cast<int>(*flight);
    auto& zing = exp.add_zing(zc);

    std::printf("running %s for %.0f s at %lld Mb/s (ZING %.1f Hz, %lld B)...\n",
                have_spec && !flags.is_set("scenario") ? scenarios::to_string(wl.kind)
                                                       : scenario->c_str(),
                wl.duration.to_seconds(),
                static_cast<long long>(tb.bottleneck_rate_bps / 1'000'000),
                1.0 / zc.mean_interval.to_seconds(),
                static_cast<long long>(zc.packet_bytes));
    scenarios::SimRecordingConfig series_cfg;
    if (!series_out->empty()) {
        series_cfg.enabled = true;
        series_cfg.interval = milliseconds(*series_interval_ms < 1 ? 1 : *series_interval_ms);
    }
    std::unique_ptr<scenarios::ExperimentRecorder> recording;
    if (series_cfg.enabled) {
        recording = std::make_unique<scenarios::ExperimentRecorder>(exp, series_cfg);
    }
    exp.run();
    if (recording) recording->finish();

    const auto truth = exp.truth();
    const auto res = zing.result();
    const auto delays = core::summarize_delays(zing.outcomes());

    std::printf("\nground truth : frequency %.4f | duration %.3f s (sigma %.3f) | "
                "%zu episodes\n",
                truth.frequency, truth.mean_duration_s, truth.sd_duration_s, truth.episodes);
    std::printf("zing loss    : frequency %.4f | duration %.3f s (sigma %.3f) | "
                "%llu/%llu probes lost in %zu runs, max run %llu\n",
                res.loss_frequency, res.mean_duration_s, res.sd_duration_s,
                static_cast<unsigned long long>(res.lost),
                static_cast<unsigned long long>(res.sent), res.loss_runs,
                static_cast<unsigned long long>(res.max_run_length));
    if (delays.valid()) {
        std::printf("zing delay   : base %.3f s | queueing p50 %.4f s, p95 %.4f s, "
                    "p99 %.4f s, max %.4f s\n",
                    delays.base_delay.to_seconds(), delays.p50_queueing_s,
                    delays.p95_queueing_s, delays.p99_queueing_s, delays.max_queueing_s);
    }

    // ZING has no streaming analyzer; publish its totals as tool-level
    // counters so the metrics export covers this prober too.
    obs::counter("probes.zing.probes_sent").inc(res.sent);
    obs::counter("probes.zing.probes_lost").inc(res.lost);

    int rc = 0;
    if (hasher) {
        std::printf("state-hash   : %s (%llu records)\n",
                    core::RunHasher::hex(hasher->digest()).c_str(),
                    static_cast<unsigned long long>(hasher->records()));
        if (!hash_trace_out->empty()) {
            if (write_text_file(*hash_trace_out, hasher->trace_json())) {
                std::printf("hash-trace   : wrote %s\n", hash_trace_out->c_str());
            } else {
                rc = 1;
            }
        }
    }
    if (recording) {
        recording->recorder().export_to_trace();
        if (recording->recorder().write_json(*series_out)) {
            std::printf("series       : wrote %s\n", series_out->c_str());
        } else {
            rc = 1;
        }
    }
    if (!trace_out->empty() && !obs::Trace::write(*trace_out)) rc = 1;
    if (!trace_out->empty() && rc == 0) {
        std::printf("trace-out    : wrote %s\n", trace_out->c_str());
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

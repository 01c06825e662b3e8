// zing_sim: run a classical Poisson prober (ZING) against the same simulated
// paths, for side-by-side comparison with badabing_sim.
//
//   $ zing_sim --scenario=tcp --hz=10 --packet-bytes=256 --duration-s=900
//   $ zing_sim --spec examples/table1.json                   # Table 1, 10 Hz row
//   $ zing_sim --spec examples/table1.json --hz=20 --packet-bytes=64   # 20 Hz row
#include <cstdio>

#include "core/delay_stats.h"
#include "obs/metrics.h"
#include "tool_common.h"

int main(int argc, char** argv) {
    using namespace bb;

    FlagSet flags{"zing_sim",
                  "Poisson-modulated loss probing on a simulated dumbbell (SIGCOMM'05 repro)"};
    const tools::SimRunFlags cli{flags};
    const auto* hz = flags.add_double("hz", 10.0, "mean probe rate, probes per second");
    const auto* packet_bytes = flags.add_int("packet-bytes", 256, "probe payload size");
    const auto* flight = flags.add_int("flight", 1, "packets per flight");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    cli.start_obs();
    auto loaded = cli.spec();
    if (!loaded) return 1;
    scenarios::ScenarioSpec& spec = *loaded;
    // A spec without a probe section parses as badabing, the DSL default, so
    // that tool runs ZING here; a spec asking for another prober or for none
    // is refused rather than run with a substitute.
    if (spec.tool == scenarios::ScenarioSpec::ProbeTool::sting ||
        spec.tool == scenarios::ScenarioSpec::ProbeTool::none) {
        std::fprintf(stderr, "%s: probe.tool is \"%s\"; zing_sim runs only zing\n",
                     cli.spec_path->c_str(), scenarios::to_string(spec.tool));
        return 1;
    }
    spec.tool = scenarios::ScenarioSpec::ProbeTool::zing;
    probes::ZingProber::Config& zc = spec.zing;
    if (flags.is_set("hz")) zc.mean_interval = seconds(1.0 / *hz);
    if (flags.is_set("packet-bytes")) zc.packet_bytes = static_cast<std::int32_t>(*packet_bytes);
    if (flags.is_set("flight")) zc.packets_per_flight = static_cast<int>(*flight);

    // The whole world lives on this thread, so one scope covers construction,
    // run, and analysis.
    const tools::RunHash hash{cli};
    const scenarios::BuiltExperiment built = scenarios::build_experiment(spec);
    const probes::ZingProber& zing = *built.zing;

    std::printf("running %s for %.0f s at %lld Mb/s (ZING %.1f Hz, %lld B)...\n",
                scenarios::to_string(spec.workload.kind), spec.workload.duration.to_seconds(),
                static_cast<long long>(spec.testbed.bottleneck_rate_bps / 1'000'000),
                1.0 / zc.mean_interval.to_seconds(), static_cast<long long>(zc.packet_bytes));
    const auto recording = cli.run(*built.experiment);

    const auto truth = built.experiment->truth();
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

    int rc = hash.report();
    if (cli.write_series(recording.get()) != 0) rc = 1;
    const int orc = cli.finish_obs();
    return rc != 0 ? rc : orc;
}

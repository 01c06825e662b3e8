// badabing_sim: run a BADABING measurement against a simulated congested
// path and print the paper's estimates; optionally dump the probe trace and
// experiment design for offline analysis with `estimate_trace`.
//
//   $ badabing_sim --scenario=cbr --p=0.3 --duration-s=300 --trace=run.csv
//   $ badabing_sim --spec run.json --p=0.5     # flags edit the spec
//
// Every simulated run is one replica built from a ScenarioSpec; Monte Carlo
// over seeds (run.replicas > 1) is `bb_sweep run <spec>`.
//
// With --stream the tool runs the fully online pipeline instead: a synthetic
// alternating-renewal congestion series feeds the streaming probe scorer and
// the online estimators slot by slot, so --slots can be 1e8 or more while
// resident memory stays constant (no series, design, or report vector is
// ever materialized).
#include <cstdio>
#include <string>

#include "core/streaming.h"
#include "core/synthetic.h"
#include "core/trace_io.h"
#include "obs/log.h"
#include "obs/process_stats.h"
#include "tool_common.h"
#include "util/json.h"
#include "util/json_io.h"

namespace {

using namespace bb;

// An estimate, or null when the run never produced one.
void estimate_value(JsonWriter& w, bool valid, double v) {
    if (valid) {
        w.value_double(v);
    } else {
        w.value_null();
    }
}

// The bounded-memory pipeline: synthetic congestion generator -> streaming
// scorer -> online estimators, one slot at a time.
int run_stream(const scenarios::ScenarioSpec& spec, std::int64_t slots, double mean_on,
               double mean_off, const std::string& json_path, std::int64_t snapshot_slots) {
    if (slots < 1) {
        std::fprintf(stderr, "--slots must be >= 1\n");
        return 1;
    }
    const double p = spec.badabing.p;
    const bool improved = spec.badabing.improved;

    core::SyntheticSeriesGen gen{Rng{spec.seed ^ 0x5EED5ULL}, mean_on, mean_off};
    core::SeriesTruthAccumulator truth;

    core::StreamingAnalyzer analyzer;
    core::ProbeProcessConfig pcfg;
    pcfg.p = p;
    pcfg.improved = improved;
    core::StreamingExperimentScorer scorer{Rng{spec.seed ^ 0xBADA0ULL}, pcfg, analyzer};

    std::printf("streaming %lld slots (p = %.2f%s, on/off = %.1f/%.1f slots)...\n",
                static_cast<long long>(slots), p, improved ? ", improved" : "", mean_on,
                mean_off);
    for (std::int64_t s = 0; s < slots; ++s) {
        const bool congested = gen.next();
        truth.consume(congested);
        scorer.step(congested);
        // Periodic metrics snapshot, keyed on slot count (not wall clock) so
        // output stays deterministic across machines.
        if (snapshot_slots > 0 && (s + 1) % snapshot_slots == 0) {
            obs::logf(obs::LogLevel::info,
                      "snapshot slot %lld/%lld: reports_scored %llu, max RSS %lld KiB",
                      static_cast<long long>(s + 1), static_cast<long long>(slots),
                      static_cast<unsigned long long>(analyzer.reports()),
                      static_cast<long long>(obs::process_stats().max_rss_kb));
        }
    }

    const core::SeriesTruth t = truth.finalize();
    const core::StreamingAnalyzer::Result res = analyzer.finalize();
    const long rss_kb = static_cast<long>(obs::process_stats().max_rss_kb);

    std::printf("\nground truth : frequency %.4f | duration %.2f slots | %zu episodes\n",
                t.frequency, t.mean_duration_slots, t.episodes);
    std::printf("streaming est: frequency %.4f | duration %.2f slots", res.frequency.value,
                res.duration_basic.valid ? res.duration_basic.slots : 0.0);
    if (res.duration_improved.valid) {
        std::printf(" | improved %.2f slots (r_hat %.3f)", res.duration_improved.slots,
                    res.duration_improved.r_hat.value_or(0.0));
    }
    std::printf("\nreports      : %llu scored (%llu experiments started, %d pending "
                "dropped at end)\n",
                static_cast<unsigned long long>(res.reports),
                static_cast<unsigned long long>(scorer.experiments_started()),
                scorer.experiments_pending());
    std::printf("validation   : pair asymmetry %.3f, violation fraction %.4f -> %s\n",
                res.validation.pair_asymmetry, res.validation.violation_fraction,
                res.validation.acceptable() ? "OK" : "SUSPECT");
    std::printf("memory       : max RSS %ld KiB (independent of --slots)\n", rss_kb);

    if (!json_path.empty()) {
        JsonWriter w{JsonWriter::Options{.indent = 2, .space_after_colon = true}};
        w.begin_object();
        w.key("mode").value("stream");
        w.key("slots").value_int(slots);
        w.key("p").value_double(p);
        w.key("improved").value(improved);
        w.key("true_frequency").value_double(t.frequency);
        w.key("true_duration_slots").value_double(t.mean_duration_slots);
        w.key("est_frequency");
        estimate_value(w, res.frequency.valid(), res.frequency.value);
        w.key("est_duration_slots");
        estimate_value(w, res.duration_basic.valid, res.duration_basic.slots);
        w.key("est_duration_improved_slots");
        estimate_value(w, res.duration_improved.valid, res.duration_improved.slots);
        w.key("reports").value_uint(res.reports);
        w.key("max_rss_kb").value_int(rss_kb);
        w.end_object();
        if (!write_text_file(json_path, w.take() + "\n")) return 1;
        std::printf("json         : wrote %s\n", json_path.c_str());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    FlagSet flags{"badabing_sim",
                  "BADABING loss measurement on a simulated dumbbell (SIGCOMM'05 repro)"};
    const tools::SimRunFlags cli{flags};
    const auto* p = flags.add_double("p", 0.3, "probe (experiment) probability per 5 ms slot");
    const auto* improved =
        flags.add_bool("improved", false, "mix in 3-probe extended experiments (Sec 5.3)");
    const auto* red = flags.add_bool("red", false, "use a RED bottleneck instead of drop-tail");
    const auto* hops = flags.add_int("extra-hops", 0, "uncongested upstream hops");
    const auto* alpha = flags.add_double("alpha", -1.0, "marking alpha (-1 = paper rule)");
    const auto* tau_ms = flags.add_int("tau-ms", -1, "marking tau in ms (-1 = paper rule)");
    const auto* trace = flags.add_string("trace", "", "write probe outcomes to FILE");
    const auto* design = flags.add_string("design", "", "write experiment design to FILE");
    const auto* json =
        flags.add_string("json", "", "write the --stream run's estimates to FILE");
    const auto* stream = flags.add_bool(
        "stream", false, "bounded-memory synthetic run: online estimators over --slots slots");
    const auto* slots =
        flags.add_int("slots", 100'000'000, "slot count for --stream (memory-independent)");
    const auto* mean_on =
        flags.add_double("mean-on-slots", 20.0, "mean episode length in slots (--stream)");
    const auto* mean_off =
        flags.add_double("mean-off-slots", 180.0, "mean gap length in slots (--stream)");
    const auto* snapshot_slots = flags.add_int(
        "snapshot-slots", 10'000'000,
        "print a metrics snapshot every N slots in --stream mode (0 = off)");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    cli.start_obs();
    auto loaded = cli.spec();
    if (!loaded) return 1;
    scenarios::ScenarioSpec& spec = *loaded;
    if (spec.tool != scenarios::ScenarioSpec::ProbeTool::badabing) {
        std::fprintf(stderr, "%s: probe.tool is \"%s\"; badabing_sim runs only badabing\n",
                     cli.spec_path->c_str(), scenarios::to_string(spec.tool));
        return 1;
    }
    if (flags.is_set("p")) spec.badabing.p = *p;
    if (flags.is_set("improved")) spec.badabing.improved = *improved;
    if (flags.is_set("red")) {
        spec.testbed.discipline =
            *red ? scenarios::QueueDiscipline::red : scenarios::QueueDiscipline::drop_tail;
    }
    if (flags.is_set("extra-hops")) spec.testbed.extra_hops = static_cast<int>(*hops);
    if (*alpha >= 0.0) spec.marking_alpha = *alpha;
    if (*tau_ms >= 0) spec.marking_tau = milliseconds(*tau_ms);
    if (flags.is_set("stream")) spec.streaming = *stream;

    if (spec.streaming) {
        // The recorder samples the event-driven simulator's clock; the
        // streaming pipeline is slot-indexed with no simulated clock to drive
        // it, so the flag does not apply there.
        if (!cli.series_out->empty()) {
            std::fprintf(stderr, "--series-out applies to simulated runs; ignored with "
                                 "--stream\n");
        }
        // The streaming pipeline has no scheduler or queues, but its Rng
        // draws and report emissions still fold when a scope is installed.
        const tools::RunHash hash{cli};
        int rc = run_stream(spec, *slots, *mean_on, *mean_off, *json, *snapshot_slots);
        if (hash.report() != 0) rc = 1;
        const int orc = cli.finish_obs();
        return rc != 0 ? rc : orc;
    }
    if (!json->empty()) {
        std::fprintf(stderr, "--json applies to --stream runs; for a replica aggregate "
                             "document run the spec with bb_sweep run\n");
        return 1;
    }
    if (spec.replicas > 1) {
        std::fprintf(stderr, "%s: run.replicas is %zu; run multi-replica specs with "
                             "bb_sweep run\n",
                     cli.spec_path->c_str(), spec.replicas);
        return 1;
    }

    // The whole world lives on this thread, so one scope covers construction,
    // run, and analysis.
    const tools::RunHash hash{cli};
    const scenarios::BuiltExperiment built = scenarios::build_experiment(spec);
    probes::BadabingTool& tool = *built.badabing;

    std::printf("running %s for %.0f s at %lld Mb/s (p = %.2f%s)...\n",
                scenarios::to_string(spec.workload.kind), spec.workload.duration.to_seconds(),
                static_cast<long long>(spec.testbed.bottleneck_rate_bps / 1'000'000),
                spec.badabing.p, spec.badabing.improved ? ", improved" : "");
    const auto recording = cli.run(*built.experiment);

    const core::MarkingConfig marking = scenarios::marking_for(spec);
    const auto truth = built.experiment->truth();
    const auto res = tool.analyze(marking, spec.estimator);

    std::printf("\nground truth : frequency %.4f | duration %.3f s (sigma %.3f) | "
                "%zu episodes\n",
                truth.frequency, truth.mean_duration_s, truth.sd_duration_s, truth.episodes);
    std::printf("badabing     : frequency %.4f | duration %.3f s", res.frequency.value,
                res.duration_basic.valid ? res.duration_basic.seconds(tool.slot_width())
                                         : 0.0);
    if (res.duration_improved.valid) {
        std::printf(" | improved %.3f s (r_hat %.3f)",
                    res.duration_improved.seconds(tool.slot_width()),
                    res.duration_improved.r_hat.value_or(0.0));
    }
    std::printf("\nprobing      : %llu probes, %.2f%% of bottleneck, marking alpha %.2f "
                "tau %.0f ms\n",
                static_cast<unsigned long long>(res.probes_sent),
                100.0 * tool.offered_load_fraction(spec.testbed.bottleneck_rate_bps),
                marking.alpha, marking.tau.to_millis());
    std::printf("validation   : pair asymmetry %.3f, violation fraction %.4f -> %s\n",
                res.validation.pair_asymmetry, res.validation.violation_fraction,
                res.validation.acceptable() ? "OK" : "SUSPECT");

    if (hash.report() != 0) return 1;
    if (!trace->empty()) {
        core::write_trace_file(*trace, tool.outcomes());
        std::printf("trace        : wrote %s\n", trace->c_str());
    }
    if (!design->empty()) {
        core::write_design_file(*design, tool.design().experiments);
        std::printf("design       : wrote %s\n", design->c_str());
    }
    if (cli.write_series(recording.get()) != 0) return 1;
    return cli.finish_obs();
}

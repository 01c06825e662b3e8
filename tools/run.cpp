// bb run: one run of a dumbbell spec, probed by the spec's probe.tool.
//
//   $ bb run examples/table1.json                     # ZING, Table 1's 10 Hz row
//   $ bb run tests/data/run_badabing.json --trace=run.csv --design=run.design
//
// badabing, zing and sting each run their prober against the simulated path
// and print its estimates beside the ground truth; `none` prints the truth
// alone.  Monte Carlo over seeds (run.replicas > 1) is `bb sweep <spec>`.
//
// A probe.streaming spec is refused: its synthetic replicas run under
// `bb sweep <spec>`.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "bb.h"
#include "core/delay_stats.h"
#include "core/run_hasher.h"
#include "core/trace_io.h"
#include "obs/metrics.h"
#include "scenarios/spec.h"
#include "util/json_io.h"

namespace bb::tools {

namespace {

using scenarios::ScenarioSpec;

// The run-state hash chain of one single-threaded run: a core::RunHasher
// scoped to this thread for the object's lifetime when --state-hash or
// --hash-trace-out asks for it.  Declare it before building the world so
// construction is folded.
class RunHash {
public:
    explicit RunHash(const HashFlags& flags) : trace_path_{*flags.trace_out} {
        if (!flags.on()) return;
        hasher_.emplace(flags.ring());
        scope_.emplace(*hasher_);
    }
    RunHash(const RunHash&) = delete;
    RunHash& operator=(const RunHash&) = delete;

    // Print the "state-hash" line and write --hash-trace-out; returns 1 if
    // the trace could not be written.  No-op when hashing is off.
    [[nodiscard]] int report() const {
        if (!hasher_) return 0;
        std::printf("state-hash   : %s (%llu records)\n",
                    core::RunHasher::hex(hasher_->digest()).c_str(),
                    static_cast<unsigned long long>(hasher_->records()));
        if (trace_path_.empty()) return 0;
        if (!write_text_file(trace_path_, hasher_->trace_json())) return 1;
        std::printf("hash-trace   : wrote %s\n", trace_path_.c_str());
        return 0;
    }

private:
    std::string trace_path_;
    std::optional<core::RunHasher> hasher_;
    std::optional<core::HashScope> scope_;
};

// The prober's part of the "running ..." line.
std::string probe_label(const ScenarioSpec& spec) {
    char buf[96]{};
    switch (spec.tool) {
        case ScenarioSpec::ProbeTool::badabing:
            std::snprintf(buf, sizeof buf, "p = %.2f%s", spec.badabing.p,
                          spec.badabing.improved ? ", improved" : "");
            break;
        case ScenarioSpec::ProbeTool::zing:
            std::snprintf(buf, sizeof buf, "ZING %.1f Hz, %lld B",
                          1.0 / spec.zing.mean_interval.to_seconds(),
                          static_cast<long long>(spec.zing.packet_bytes));
            break;
        case ScenarioSpec::ProbeTool::sting:
            std::snprintf(buf, sizeof buf, "STING %d segments every %.1f s",
                          spec.sting.burst_segments, spec.sting.burst_interval.to_seconds());
            break;
        case ScenarioSpec::ProbeTool::none:
            std::snprintf(buf, sizeof buf, "no prober");
            break;
    }
    return buf;
}

void print_badabing(const ScenarioSpec& spec, const probes::BadabingTool& tool) {
    const core::MarkingConfig marking = scenarios::marking_for(spec);
    const auto res = tool.analyze(marking, spec.estimator);
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
}

void print_zing(const probes::ZingProber& zing) {
    const auto res = zing.result();
    const auto delays = core::summarize_delays(zing.outcomes());
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
}

void print_sting(const probes::StingProber& sting) {
    const auto res = sting.result();
    std::printf("sting loss   : forward loss rate %.4f | %zu bursts, %llu/%llu segments "
                "refilled, %llu retransmissions\n",
                res.forward_loss_rate, res.bursts_completed,
                static_cast<unsigned long long>(res.holes_filled),
                static_cast<unsigned long long>(res.data_packets),
                static_cast<unsigned long long>(res.retransmissions));
}

// Why `spec` with these output flags cannot be one `bb run`, or "".
std::string refusal(const ScenarioSpec& spec, bool outcomes) {
    if (spec.topology != ScenarioSpec::Topology::dumbbell) {
        return "only the dumbbell topology hosts a single run";
    }
    if (spec.streaming) return "probe.streaming: run it with bb sweep";
    if (spec.replicas > 1) {
        return "run.replicas is " + std::to_string(spec.replicas) +
               "; run multi-replica specs with bb sweep";
    }
    if (outcomes && spec.tool != ScenarioSpec::ProbeTool::badabing) {
        return std::string{"--trace and --design record badabing probes; probe.tool is \""} +
               scenarios::to_string(spec.tool) + "\"";
    }
    return "";
}

}  // namespace

int run_main(int argc, char** argv) {
    FlagSet flags{"bb run", "one simulated run of a dumbbell spec, probed by its probe.tool"};
    flags.allow_positionals(1, 1, "<spec.json>");
    const ObsFlags obs{flags};
    const SeriesFlags series{
        flags, "record sim-time series (queue, drops, GE state, probe tallies) to FILE"};
    const HashFlags hash{flags,
                         "fold the run-state hash chain (events, rng, verdicts, reports) and "
                         "print the final digest",
                         "write the bb.hashtrace.v1 ring of recent chain records to FILE"};
    const auto* trace =
        flags.add_string("trace", "", "write a badabing run's probe outcomes to FILE");
    const auto* design =
        flags.add_string("design", "", "write a badabing run's experiment design to FILE");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    const std::string& spec_path = flags.positionals()[0];
    scenarios::SpecResult loaded = scenarios::load_scenario_spec_file(spec_path);
    if (!loaded.ok) {
        std::fprintf(stderr, "%s\n", loaded.error.c_str());
        return 1;
    }
    ScenarioSpec& spec = loaded.spec;
    if (const std::string why = refusal(spec, !trace->empty() || !design->empty());
        !why.empty()) {
        std::fprintf(stderr, "%s: %s\n", spec_path.c_str(), why.c_str());
        return 1;
    }
    obs.start(series.on());

    // A single run draws its randomized queue drops (RED/PIE/GE) from the
    // run seed too.
    spec.testbed.seed = spec.seed;
    // The whole world lives on this thread, so one scope covers construction,
    // run, and analysis.
    const RunHash h{hash};
    const scenarios::BuiltExperiment built = scenarios::build_experiment(spec);
    scenarios::Experiment& exp = *built.experiment;

    std::printf("running %s for %.0f s at %lld Mb/s (%s)...\n",
                scenarios::to_string(spec.workload.kind), spec.workload.duration.to_seconds(),
                static_cast<long long>(spec.testbed.bottleneck_rate_bps / 1'000'000),
                probe_label(spec).c_str());
    std::unique_ptr<scenarios::ExperimentRecorder> recording;
    if (series.on()) {
        recording = std::make_unique<scenarios::ExperimentRecorder>(exp, series.config());
    }
    exp.run();
    if (recording) recording->finish();

    const auto truth = exp.truth();
    std::printf("\nground truth : frequency %.4f | duration %.3f s (sigma %.3f) | "
                "%zu episodes\n",
                truth.frequency, truth.mean_duration_s, truth.sd_duration_s, truth.episodes);
    switch (spec.tool) {
        case ScenarioSpec::ProbeTool::badabing: print_badabing(spec, *built.badabing); break;
        case ScenarioSpec::ProbeTool::zing: print_zing(*built.zing); break;
        case ScenarioSpec::ProbeTool::sting: print_sting(*built.sting); break;
        case ScenarioSpec::ProbeTool::none: break;
    }

    if (h.report() != 0) return 1;
    if (!trace->empty()) {
        core::write_trace_file(*trace, built.badabing->outcomes());
        std::printf("trace        : wrote %s\n", trace->c_str());
    }
    if (!design->empty()) {
        core::write_design_file(*design, built.badabing->design().experiments);
        std::printf("design       : wrote %s\n", design->c_str());
    }
    if (recording) {
        recording->recorder().export_to_trace();
        if (!recording->recorder().write_json(*series.out)) return 1;
        std::printf("series       : wrote %s\n", series.out->c_str());
    }
    return obs.finish();
}

}  // namespace bb::tools

// bb run: one run of a dumbbell spec, probed by the spec's probe.tool.
//
//   $ bb run examples/table1.json                     # ZING, Table 1's 10 Hz row
//   $ bb run tests/data/run_badabing.json --trace=run.csv --design=run.design
//
// badabing, zing and sting each run their prober against the simulated path
// and print its estimates beside the ground truth; `none` prints the truth
// alone.  Monte Carlo over seeds (run.replicas > 1) is `bb sweep <spec>`.
//
// A spec with probe.streaming runs the fully online pipeline instead: a
// synthetic alternating-renewal congestion series feeds the streaming probe
// scorer and the online estimators slot by slot, so probe.badabing.total_slots
// can be 1e8 or more while resident memory stays constant (no series, design,
// or report vector is ever materialized).
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "bb.h"
#include "core/delay_stats.h"
#include "core/run_hasher.h"
#include "core/streaming.h"
#include "core/synthetic.h"
#include "core/trace_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "scenarios/spec.h"
#include "util/json.h"
#include "util/json_io.h"

namespace bb::tools {

namespace {

using scenarios::ScenarioSpec;

// The streaming pipeline's alternating-renewal congestion process (mean
// episode and gap lengths, in slots) and its metrics-snapshot cadence.
constexpr double kStreamMeanOnSlots = 20.0;
constexpr double kStreamMeanOffSlots = 180.0;
constexpr std::int64_t kSnapshotSlots = 10'000'000;

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

// An estimate, or null when the run never produced one.
void estimate_value(JsonWriter& w, bool valid, double v) {
    if (valid) {
        w.value_double(v);
    } else {
        w.value_null();
    }
}

// A streaming run's length: probe.badabing.total_slots, or the traffic
// duration in slots when that is 0.
std::int64_t stream_slots(const ScenarioSpec& spec) {
    return spec.badabing.total_slots > 0 ? static_cast<std::int64_t>(spec.badabing.total_slots)
                                         : spec.workload.duration / spec.badabing.slot_width;
}

// The bounded-memory pipeline: synthetic congestion generator -> streaming
// scorer -> online estimators, one slot at a time.
int run_stream(const ScenarioSpec& spec, const std::string& json_path) {
    const std::int64_t slots = stream_slots(spec);
    const double p = spec.badabing.p;
    const bool improved = spec.badabing.improved;

    core::SyntheticSeriesGen gen{Rng{spec.seed ^ 0x5EED5ULL}, kStreamMeanOnSlots,
                                 kStreamMeanOffSlots};
    core::SeriesTruthAccumulator truth;

    core::StreamingAnalyzer analyzer{spec.estimator};
    core::ProbeProcessConfig pcfg;
    pcfg.p = p;
    pcfg.improved = improved;
    pcfg.extended_fraction = spec.badabing.extended_fraction;
    core::StreamingExperimentScorer scorer{Rng{spec.seed ^ 0xBADA0ULL}, pcfg, analyzer};

    std::printf("streaming %lld slots (p = %.2f%s, on/off = %.1f/%.1f slots)...\n",
                static_cast<long long>(slots), p, improved ? ", improved" : "",
                kStreamMeanOnSlots, kStreamMeanOffSlots);
    for (std::int64_t s = 0; s < slots; ++s) {
        const bool congested = gen.next();
        truth.consume(congested);
        scorer.step(congested);
        // Periodic metrics snapshot, keyed on slot count (not wall clock) so
        // output stays deterministic across machines.
        if ((s + 1) % kSnapshotSlots == 0) {
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
    std::printf("memory       : max RSS %ld KiB (independent of the slot count)\n", rss_kb);

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
std::string refusal(const ScenarioSpec& spec, bool json, bool outcomes, bool series) {
    const char* tool = scenarios::to_string(spec.tool);
    if (spec.topology != ScenarioSpec::Topology::dumbbell) {
        return "only the dumbbell topology hosts a single run";
    }
    if (spec.streaming && spec.tool != ScenarioSpec::ProbeTool::badabing) {
        return std::string{"probe.streaming runs the badabing pipeline; probe.tool is \""} +
               tool + "\"";
    }
    if (spec.replicas > 1) {
        return "run.replicas is " + std::to_string(spec.replicas) +
               (spec.streaming ? "; a probe.streaming run is one stream"
                               : "; run multi-replica specs with bb sweep");
    }
    if (spec.streaming) {
        if (stream_slots(spec) < 1) {
            return "probe.streaming needs at least one slot (probe.badabing.total_slots, or "
                   "traffic.duration_s of at least one slot_ms)";
        }
        if (outcomes || series) {
            return "--trace, --design and --series-out record a simulated run; "
                   "probe.streaming is true";
        }
        return "";
    }
    if (json) return "--json writes a probe.streaming run's estimates; probe.streaming is false";
    if (outcomes && spec.tool != ScenarioSpec::ProbeTool::badabing) {
        return std::string{"--trace and --design record badabing probes; probe.tool is \""} +
               tool + "\"";
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
    const auto* json =
        flags.add_string("json", "", "write a probe.streaming run's estimates to FILE");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;

    const std::string& spec_path = flags.positionals()[0];
    scenarios::SpecResult loaded = scenarios::load_scenario_spec_file(spec_path);
    if (!loaded.ok) {
        std::fprintf(stderr, "%s\n", loaded.error.c_str());
        return 1;
    }
    ScenarioSpec& spec = loaded.spec;
    if (const std::string why = refusal(spec, !json->empty(),
                                        !trace->empty() || !design->empty(), series.on());
        !why.empty()) {
        std::fprintf(stderr, "%s: %s\n", spec_path.c_str(), why.c_str());
        return 1;
    }
    obs.start(series.on());

    if (spec.streaming) {
        // The streaming pipeline has no scheduler or queues, but its Rng
        // draws and report emissions still fold when a scope is installed.
        const RunHash h{hash};
        int rc = run_stream(spec, *json);
        if (h.report() != 0) rc = 1;
        const int orc = obs.finish();
        return rc != 0 ? rc : orc;
    }

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

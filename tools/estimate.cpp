// bb estimate: offline analysis of a probe trace + design written by
// `bb sweep --trace --design` (or a real receiver writing the same format):
// congestion marking, loss estimates, the Markov fit, a stationarity check,
// bootstrap confidence intervals, validation, and delay statistics — without
// re-running any simulation.  Trace and design are read whole: the marker's tau/alpha rule
// needs every probe, and the fit, check and bootstrap the report sequence.
//
//   $ bb sweep tests/data/run_badabing.json --trace=run.csv --design=run.design
//   $ bb estimate --trace=run.csv --design=run.design --slot-ms=5
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bootstrap.h"
#include "core/delay_stats.h"
#include "core/estimators.h"
#include "core/markov.h"
#include "core/marking.h"
#include "core/probe_process.h"
#include "core/streaming.h"
#include "core/trace_io.h"
#include "core/validation.h"
#include "core/windowed.h"
#include "bb.h"
#include "scenarios/spec.h"
#include "util/flags.h"

namespace {

// Marks, scores and prints one recorded trace.  The report vector is kept
// beside the analyzer: the Markov fit, the stationarity check and the
// bootstrap need the report sequence.
template <typename MarkFn>
void analyze(const std::string& design_path, const std::vector<bb::core::ProbeOutcome>& probes,
             bb::TimeNs slot, MarkFn&& is_congested, bb::core::StreamingAnalyzer& analyzer,
             std::int64_t replicates, std::uint64_t seed) {
    using namespace bb;
    using namespace bb::core;
    const auto experiments = read_design_file(design_path);
    VectorSink<ExperimentResult> reports;
    reports.reserve(experiments.size());
    TeeSink<ExperimentResult> tee{{&analyzer, &reports}};
    score_experiments_into(experiments, is_congested, tee);
    const std::vector<ExperimentResult>& results = reports.items();

    const auto res = analyzer.finalize();
    const auto markov = estimate_markov(tally_pairs(results));
    const SlotIndex last_slot = experiments.empty()
                                    ? 0
                                    : experiments.back().start_slot + 3;
    const auto stationarity = check_stationarity(experiments, results, last_slot);
    const auto delays = summarize_delays(probes);

    std::printf("trace        : %zu probes, %zu experiments\n", probes.size(),
                experiments.size());
    std::printf("frequency    : %.5f  (moment estimator, Sec 5.2.2)\n", res.frequency.value);
    std::printf("duration     : %.4f s (basic)",
                res.duration_basic.valid ? res.duration_basic.seconds(slot) : 0.0);
    if (res.duration_improved.valid) {
        std::printf("  |  %.4f s (improved, r_hat %.3f)", res.duration_improved.seconds(slot),
                    res.duration_improved.r_hat.value_or(0.0));
    }
    std::printf("\n");
    std::printf("markov (param): frequency %.5f, duration %.4f s  (Sec 8 extension)\n",
                markov.valid ? markov.frequency : 0.0,
                markov.valid ? markov.duration_seconds(slot) : 0.0);
    std::printf("validation   : pair asymmetry %.3f, violations %.4f -> %s\n",
                res.validation.pair_asymmetry, res.validation.violation_fraction,
                res.validation.acceptable() ? "OK" : "SUSPECT");
    if (delays.valid()) {
        std::printf("delays       : base %.4f s, queueing p95 %.4f s, loss-conditional "
                    "%.4f s\n",
                    delays.base_delay.to_seconds(), delays.p95_queueing_s,
                    delays.loss_conditional_queueing_s);
    }
    std::printf("stationarity : first half F %.5f vs second half F %.5f -> %s\n",
                stationarity.first_half_frequency, stationarity.second_half_frequency,
                stationarity.looks_stationary ? "stationary" : "NON-STATIONARY");

    if (replicates > 0) {
        BootstrapConfig bcfg;
        bcfg.replicates = static_cast<std::size_t>(replicates);
        Rng rng{seed};
        const auto ci = bootstrap_estimates(results, bcfg, rng);
        if (ci.frequency.valid) {
            std::printf("bootstrap    : frequency %.5f [%.5f, %.5f] (90%%)\n",
                        ci.frequency.point, ci.frequency.lo, ci.frequency.hi);
        }
        if (ci.duration_slots.valid) {
            std::printf("               duration %.4f s [%.4f, %.4f] (90%%)\n",
                        ci.duration_slots.point * slot.to_seconds(),
                        ci.duration_slots.lo * slot.to_seconds(),
                        ci.duration_slots.hi * slot.to_seconds());
        }
    }
}

}  // namespace

namespace bb::tools {

int estimate_main(int argc, char** argv) {
    using namespace bb::core;

    FlagSet flags{"bb estimate", "offline BADABING estimation from a probe trace"};
    const auto* spec_path = flags.add_string(
        "spec", "",
        "scenario spec FILE supplying slot width + marking; explicit flags override it");
    const auto* trace_path = flags.add_string("trace", "", "probe trace file (required)");
    const auto* design_path = flags.add_string("design", "", "experiment design file (required)");
    const auto* slot_ms = flags.add_int("slot-ms", 5, "slot width used by the sender, ms");
    const auto* alpha = flags.add_double("alpha", 0.1, "marking alpha");
    const auto* tau_ms = flags.add_int("tau-ms", 40, "marking tau, ms");
    const auto* replicates = flags.add_int("bootstrap", 200, "bootstrap replicates (0 = off)");
    const auto* seed = flags.add_int("seed", 1, "bootstrap RNG seed");
    const ObsFlags obs{flags};
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 1;
    obs.start(false);
    if (trace_path->empty() || design_path->empty()) {
        std::fprintf(stderr, "bb estimate: --trace and --design are required\n");
        return 1;
    }

    // --spec carries the sender's slot width and the marking rule so analysis
    // of a recorded trace uses the same configuration that produced it.
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

    const auto probes = read_trace_file(*trace_path);
    const TimeNs slot = have_spec && !flags.is_set("slot-ms") ? spec.badabing.slot_width
                                                              : milliseconds(*slot_ms);

    MarkingConfig marking;
    if (have_spec) marking = scenarios::marking_for(spec);
    if (!have_spec || flags.is_set("alpha")) marking.alpha = *alpha;
    if (!have_spec || flags.is_set("tau-ms")) marking.tau = milliseconds(*tau_ms);
    CongestionMarker marker{marking};
    const auto marks = marker.mark(probes);

    std::unordered_map<SlotIndex, bool> congested;
    congested.reserve(marks.size());
    for (const auto& m : marks) congested[m.slot] = m.congested;
    const auto is_congested = [&congested](SlotIndex s) {
        const auto it = congested.find(s);
        return it != congested.end() && it->second;
    };

    {
        // The analyzer publishes its per-state tallies to the obs registry
        // when it goes out of scope, so it must be gone before obs.finish()
        // writes the metrics file.
        StreamingAnalyzer analyzer;
        analyze(*design_path, probes, slot, is_congested, analyzer, *replicates,
                have_spec && !flags.is_set("seed") ? spec.seed
                                                   : static_cast<std::uint64_t>(*seed));
    }
    return obs.finish();
}

}  // namespace bb::tools

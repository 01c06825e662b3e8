// Path monitor: open-ended, self-validating measurement (paper §5.1/§5.4/§7).
//
// Runs BADABING continuously and, after every 20 s reporting period,
// re-scores the probes sent so far and evaluates the §5.4 stopping rule.
// The monitor reports its estimates as soon as the rule says the validation
// tests agree — the "take measurements continuously, and report when the
// validation techniques confirm that the estimation is robust" operation
// the paper advocates for wide-area deployment — rather than after a fixed
// number of slots.
//
// The scenario is the spec document kSpec, built by
// scenarios::build_experiment and marked with scenarios::marking_for.  Its
// loss episodes come every 4 s on average, often enough that the rule
// fires well before the workload ends.
#include <cstdio>
#include <unordered_map>

#include "core/estimators.h"
#include "core/marking.h"
#include "core/validation.h"
#include "measure/episodes.h"
#include "scenarios/spec.h"

namespace {

using namespace bb;

constexpr const char* kSpec =
    R"({"link": {"rate_mbps": 10},
        "traffic": {"kind": "cbr_uniform", "duration_s": 900, "mean_episode_gap_s": 4},
        "probe": {"badabing": {"p": 0.4, "improved": true, "total_slots": 0}},
        "analysis": {"tau_ms": 20, "alpha": 0.1},
        "run": {"seed": 1}})";

// Re-analyze only the probes sent before `horizon` (everything already
// received); demonstrates driving the core estimation API directly.
core::StateCounts counts_up_to(const probes::BadabingTool& tool,
                               const core::MarkingConfig& marking, TimeNs horizon) {
    std::vector<core::ProbeOutcome> outcomes;
    for (const auto& po : tool.outcomes()) {
        if (po.send_time < horizon) outcomes.push_back(po);
    }
    core::CongestionMarker marker{marking};
    const auto marks = marker.mark(outcomes);
    std::unordered_map<core::SlotIndex, bool> congested;
    for (const auto& m : marks) congested[m.slot] = m.congested;

    const core::SlotIndex last_slot =
        outcomes.empty() ? 0 : outcomes.back().slot;
    std::vector<core::Experiment> done;
    for (const auto& e : tool.design().experiments) {
        if (e.start_slot + e.probes() - 1 <= last_slot) done.push_back(e);
    }
    core::StateCounts counts;
    for (const auto& r : core::score_experiments(done, [&congested](core::SlotIndex s) {
             const auto it = congested.find(s);
             return it != congested.end() && it->second;
         })) {
        counts.add(r);
    }
    return counts;
}

}  // namespace

int main() {
    const auto parsed = scenarios::load_scenario_spec_text(kSpec, "path_monitor");
    if (!parsed.ok) {
        std::fprintf(stderr, "%s\n", parsed.error.c_str());
        return 1;
    }
    const scenarios::ScenarioSpec& spec = parsed.spec;
    const scenarios::BuiltExperiment built = scenarios::build_experiment(spec);
    scenarios::Experiment& experiment = *built.experiment;
    const probes::BadabingTool& tool = *built.badabing;
    const core::MarkingConfig marking = scenarios::marking_for(spec);

    core::StoppingRule::Config rule_cfg;
    rule_cfg.min_transitions = 30;
    rule_cfg.tolerance = 0.35;
    const core::StoppingRule rule{rule_cfg};

    const TimeNs period = seconds_i(20);
    std::printf("monitoring path (p = %.2f, improved design, %.0f s reporting periods)\n\n",
                spec.badabing.p, period.to_seconds());
    std::printf("%-8s | %-9s | %-11s | %-10s | %s\n", "t (s)", "freq est", "dur est (s)",
                "pair-asym", "decision");
    std::printf("---------------------------------------------------------------\n");

    for (TimeNs t = period; t <= spec.workload.duration; t += period) {
        experiment.testbed().sched().run_until(t);
        const TimeNs horizon = t - seconds_i(1);  // probes sent before it have landed
        const auto counts = counts_up_to(tool, marking, horizon);
        const auto freq = core::estimate_frequency(counts);
        const auto dur = core::estimate_duration_improved(counts);
        const auto validation = core::validate(counts);
        const auto decision = rule.evaluate(counts);
        const char* decision_str =
            decision == core::StoppingRule::Decision::stop_valid     ? "STOP (valid)"
            : decision == core::StoppingRule::Decision::stop_invalid ? "STOP (invalid)"
                                                                     : "keep going";
        std::printf("%-8.0f | %-9.4f | %-11.3f | %-10.3f | %s\n", t.to_seconds(), freq.value,
                    dur.valid ? dur.seconds(tool.slot_width()) : 0.0, validation.pair_asymmetry,
                    decision_str);
        if (decision != core::StoppingRule::Decision::keep_going) {
            const auto truth = measure::summarize_truth(
                experiment.episodes(), spec.truth.slot_width, TimeNs::zero(), horizon);
            std::printf("\nmonitor stopped at t = %.0f s with a %s estimate\n",
                        t.to_seconds(),
                        decision == core::StoppingRule::Decision::stop_valid ? "validated"
                                                                             : "REJECTED");
            std::printf("ground truth over the same %.0f s: frequency %.4f, duration %.3f s\n",
                        horizon.to_seconds(), truth.frequency, truth.mean_duration_s);
            return 0;
        }
    }
    std::printf("\nrun ended before the stopping rule fired; report the last\n"
                "estimates with their validation figures attached.\n");
    return 0;
}

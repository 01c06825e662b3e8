// Path monitor: open-ended, self-validating measurement (paper §5.4/§7).
//
// Runs BADABING continuously at a low probe rate against web-like cross
// traffic and evaluates the validation tests after every reporting period.
// The monitor reports estimates only once the stopping rule says the
// symmetry assumptions have converged — the "self-calibrating" usage the
// paper advocates for wide-area deployment.
#include <cstdio>
#include <unordered_map>

#include "core/estimators.h"
#include "core/marking.h"
#include "core/validation.h"
#include "scenarios/experiment.h"

namespace {

using namespace bb;

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
    using namespace bb;

    scenarios::TestbedConfig testbed;
    testbed.bottleneck_rate_bps = 30'000'000;

    scenarios::WorkloadConfig workload;
    workload.kind = scenarios::TrafficKind::web;
    workload.duration = seconds_i(900);
    workload.seed = 17;
    scenarios::TruthConfig truth_cfg;
    truth_cfg.delay_based = true;

    scenarios::Experiment experiment{testbed, workload, truth_cfg};

    const double p = 0.2;  // low impact: long-running monitor
    probes::BadabingConfig probe_cfg;
    probe_cfg.p = p;
    probe_cfg.improved = true;  // extended experiments for r_hat + validation
    probe_cfg.total_slots = 0;
    auto& tool = experiment.add_badabing(probe_cfg);
    const auto marking = experiment.default_marking(p);

    core::StoppingRule::Config rule_cfg;
    rule_cfg.min_transitions = 40;
    rule_cfg.tolerance = 0.25;
    const core::StoppingRule rule{rule_cfg};

    std::printf("monitoring path (p = %.2f, improved design, 30 s reporting periods)\n\n", p);
    std::printf("%-8s | %-9s | %-11s | %-10s | %s\n", "t (s)", "freq est", "dur est (s)",
                "pair-asym", "decision");
    std::printf("---------------------------------------------------------------\n");

    bool stopped = false;
    for (TimeNs t = seconds_i(30); t <= workload.duration; t += seconds_i(30)) {
        experiment.testbed().sched().run_until(t);
        const auto counts = counts_up_to(tool, marking, t - seconds_i(1));
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
            stopped = true;
            // Finish the workload so ground truth covers the same window.
            experiment.run();
            const auto truth = experiment.truth();
            std::printf("\nmonitor stopped at t = %.0f s with a %s estimate\n",
                        t.to_seconds(),
                        decision == core::StoppingRule::Decision::stop_valid ? "validated"
                                                                             : "REJECTED");
            std::printf("ground truth over the full run: frequency %.4f, duration %.3f s\n",
                        truth.frequency, truth.mean_duration_s);
            break;
        }
    }
    if (!stopped) {
        std::printf("\nrun ended before the stopping rule fired; report the last\n"
                    "estimates with their validation figures attached.\n");
    }
    return 0;
}

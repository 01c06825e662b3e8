// Adaptive monitor: the open-ended measurement style of paper §5.1/§7 using
// the built-in AdaptiveBadabingTool — probe at low impact, let the §5.4
// validation-based stopping rule decide when the estimates are trustworthy,
// and stop probing automatically.
#include <cstdio>

#include "probes/adaptive_badabing.h"
#include "scenarios/testbed.h"
#include "scenarios/workload.h"

int main() {
    using namespace bb;

    scenarios::TestbedConfig testbed;
    testbed.bottleneck_rate_bps = 30'000'000;
    scenarios::Testbed tb{testbed};

    scenarios::WorkloadConfig wl;
    wl.kind = scenarios::TrafficKind::cbr_uniform;
    wl.duration = seconds_i(3600);  // the workload just keeps going...
    wl.mean_episode_gap = seconds_i(8);
    wl.seed = 11;
    scenarios::Workload workload{tb, wl};

    probes::AdaptiveBadabingConfig cfg;
    cfg.p = 0.2;
    cfg.improved = true;
    cfg.max_duration = seconds_i(3600);
    cfg.evaluation_interval = seconds_i(30);
    cfg.stopping.min_transitions = 60;
    cfg.stopping.tolerance = 0.25;
    cfg.marking.tau = milliseconds(40);
    cfg.marking.alpha = 0.1;
    probes::AdaptiveBadabingTool tool{tb.sched(), cfg, tb.forward_in(), Rng{wl.seed ^ 0xAD}};
    tb.fwd_demux().bind(cfg.flow, tool);

    std::printf("monitoring at p = %.2f; the tool stops itself when the Sec 5.4\n"
                "validation tests converge...\n\n",
                cfg.p);

    // ...the monitor stops on its own; run until it does.
    while (!tool.stopped() && tb.sched().now() < wl.duration) {
        tb.sched().run_until(tb.sched().now() + seconds_i(60));
    }

    const auto snap = tool.snapshot();
    std::printf("stopped at t = %.0f s with decision: %s\n", tool.stopped_at().to_seconds(),
                tool.decision() == core::StoppingRule::Decision::stop_valid ? "VALID"
                : tool.decision() == core::StoppingRule::Decision::stop_invalid
                    ? "INVALID (assumptions rejected)"
                    : "hard cap reached");
    std::printf("probes sent: %llu (%zu experiments)\n",
                static_cast<unsigned long long>(tool.probes_sent()),
                tool.experiments_started());
    std::printf("frequency estimate : %.4f\n", snap.frequency.value);
    std::printf("duration estimate  : %.3f s (basic) / %.3f s (improved)\n",
                snap.duration_basic.valid ? snap.duration_basic.seconds(cfg.slot_width) : 0.0,
                snap.duration_improved.valid ? snap.duration_improved.seconds(cfg.slot_width)
                                             : 0.0);
    std::printf("validation         : pair asymmetry %.3f, violations %.4f\n",
                snap.validation.pair_asymmetry, snap.validation.violation_fraction);
    return 0;
}

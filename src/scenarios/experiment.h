// Experiment driver: testbed + workload + ground truth + optional probers,
// run end to end.  Outside src/scenarios it is built only from a spec, by
// scenarios::build_experiment (spec.h): every simulated replica, the figure
// programs and examples/path_monitor run on it.
#ifndef BB_SCENARIOS_EXPERIMENT_H
#define BB_SCENARIOS_EXPERIMENT_H

#include <memory>
#include <optional>

#include "measure/loss_monitor.h"
#include "probes/badabing.h"
#include "probes/sting.h"
#include "probes/zing.h"
#include "scenarios/testbed.h"
#include "scenarios/workload.h"
#include "tcp/tcp_receiver.h"

namespace bb::scenarios {

struct TruthConfig {
    TimeNs slot_width{milliseconds(5)};
    // Quiet gap that terminates an episode (~ the path RTT, see §3).
    TimeNs episode_gap{milliseconds(100)};
    // Use the delay-based delineation heuristic (the paper applies it to the
    // bursty web scenario, §4.2).
    bool delay_based{false};
    TimeNs delay_floor{milliseconds(90)};
};

class Experiment {
public:
    Experiment(const TestbedConfig& tb_cfg, const WorkloadConfig& wl_cfg,
               TruthConfig truth_cfg = {});

    Experiment(const Experiment&) = delete;
    Experiment& operator=(const Experiment&) = delete;

    // --- attach probers before run() ---------------------------------------
    probes::ZingProber& add_zing(const probes::ZingProber::Config& cfg);
    probes::BadabingTool& add_badabing(const probes::BadabingConfig& cfg);
    probes::FixedIntervalProber& add_fixed_prober(
        const probes::FixedIntervalProber::Config& cfg);
    // STING measures against a live TCP responder; this wires the prober, the
    // far-side responder, and the reverse ACK path in one call.
    probes::StingProber& add_sting(const probes::StingProber::Config& cfg);

    // Run the workload plus a drain margin so in-flight packets settle.
    void run();

    // --- results ------------------------------------------------------------
    [[nodiscard]] measure::TruthSummary truth() const;
    [[nodiscard]] std::vector<measure::LossEpisode> episodes() const;

    [[nodiscard]] Testbed& testbed() noexcept { return testbed_; }
    // Attached BADABING tools, in attach order (the sim-time recorder samples
    // their live probe tallies).
    [[nodiscard]] const std::vector<std::unique_ptr<probes::BadabingTool>>&
    badabing_tools() const noexcept {
        return badabing_;
    }
    [[nodiscard]] Workload& workload() noexcept { return workload_; }
    [[nodiscard]] measure::LossMonitor& monitor() noexcept { return *monitor_; }
    [[nodiscard]] const WorkloadConfig& workload_config() const noexcept {
        return workload_cfg_;
    }

    // Default marking parameters used throughout §6.2: tau = expected time
    // between probes plus one standard deviation; alpha per probe rate.
    [[nodiscard]] core::MarkingConfig default_marking(double p) const;

private:
    WorkloadConfig workload_cfg_;
    TruthConfig truth_cfg_;
    Testbed testbed_;
    std::unique_ptr<measure::LossMonitor> monitor_;
    Workload workload_;

    std::vector<std::unique_ptr<probes::ZingProber>> zing_;
    std::vector<std::unique_ptr<probes::BadabingTool>> badabing_;
    std::vector<std::unique_ptr<probes::FixedIntervalProber>> fixed_;
    std::vector<std::unique_ptr<probes::StingProber>> sting_;
    std::vector<std::unique_ptr<tcp::TcpReceiver>> sting_responders_;
    sim::FlowId next_probe_flow_{7000};
    bool ran_{false};
};

// tau selection rule from §6.2: expected time between probes plus one
// standard deviation of the geometric inter-probe gap.
[[nodiscard]] TimeNs tau_for_probe_rate(double p, TimeNs slot_width) noexcept;

// alpha selection used for Tables 4-6 (paper §6.2): 0.2 for p = 0.1, 0.1 for
// p in {0.3, 0.5}, 0.5 for p in {0.7, 0.9}.
[[nodiscard]] double alpha_for_probe_rate(double p) noexcept;

}  // namespace bb::scenarios

#endif  // BB_SCENARIOS_EXPERIMENT_H

#include "scenarios/experiment.h"

#include <cmath>
#include <optional>

#include "obs/trace.h"

namespace bb::scenarios {

TimeNs tau_for_probe_rate(double p, TimeNs slot_width) noexcept {
    // Inter-probe gaps are geometric with mean 1/p slots and standard
    // deviation sqrt(1-p)/p slots.
    const double mean_slots = 1.0 / p;
    const double sd_slots = std::sqrt(1.0 - p) / p;
    return seconds((mean_slots + sd_slots) * slot_width.to_seconds());
}

double alpha_for_probe_rate(double p) noexcept {
    if (p < 0.2) return 0.2;
    if (p < 0.6) return 0.1;
    return 0.5;
}

namespace {

measure::LossMonitor::Options monitor_options(const TruthConfig& truth_cfg,
                                              const WorkloadConfig& wl_cfg) {
    measure::LossMonitor::Options opts;
    opts.count_probe_traffic = true;
    // Both truth rules run online, over the workload window.
    opts.streaming_truth = measure::EpisodeAccumulator::Config{
        .gap = truth_cfg.episode_gap,
        .slot_width = truth_cfg.slot_width,
        .window_begin = TimeNs::zero(),
        .window_end = wl_cfg.duration,
        .delay_floor = truth_cfg.delay_based ? std::optional{truth_cfg.delay_floor}
                                             : std::nullopt};
    return opts;
}

}  // namespace

Experiment::Experiment(const TestbedConfig& tb_cfg, const WorkloadConfig& wl_cfg,
                       TruthConfig truth_cfg)
    : workload_cfg_{wl_cfg},
      truth_cfg_{truth_cfg},
      testbed_{tb_cfg},
      monitor_{std::make_unique<measure::LossMonitor>(testbed_.sched(), testbed_.bottleneck(),
                                                      monitor_options(truth_cfg, wl_cfg))},
      workload_{testbed_, wl_cfg} {
    // Losses on the Gilbert-Elliott segment count toward the same ground
    // truth as bottleneck drops: the GE link sits downstream of the queue,
    // so its drop instants are non-decreasing relative to the queue's.
    if (auto* ge = testbed_.ge()) {
        ge->on_drop([mon = monitor_.get()](const sim::Packet& pkt, TimeNs at) {
            mon->observe_external_drop(at, pkt.kind == sim::PacketKind::probe);
        });
    }
}

probes::ZingProber& Experiment::add_zing(const probes::ZingProber::Config& cfg) {
    probes::ZingProber::Config local = cfg;
    if (local.flow == 0) local.flow = next_probe_flow_;
    next_probe_flow_ = local.flow + 1;
    if (local.stop == TimeNs::max()) local.stop = workload_cfg_.duration;
    zing_.push_back(std::make_unique<probes::ZingProber>(
        testbed_.sched(), local, testbed_.forward_in(),
        Rng{workload_cfg_.seed ^ (0x51D0ULL + local.flow)}));
    testbed_.fwd_demux().bind(local.flow, *zing_.back());
    return *zing_.back();
}

probes::BadabingTool& Experiment::add_badabing(const probes::BadabingConfig& cfg) {
    probes::BadabingConfig local = cfg;
    if (local.flow == 0) local.flow = next_probe_flow_;
    next_probe_flow_ = local.flow + 1;
    // Size the design to the workload window unless explicitly overridden.
    if (local.total_slots == 0) {
        local.total_slots = (workload_cfg_.duration - local.start) / local.slot_width;
    }
    badabing_.push_back(std::make_unique<probes::BadabingTool>(
        testbed_.sched(), local, testbed_.forward_in(),
        Rng{workload_cfg_.seed ^ (0xBADAULL + local.flow)}));
    testbed_.fwd_demux().bind(local.flow, *badabing_.back());
    return *badabing_.back();
}

probes::FixedIntervalProber& Experiment::add_fixed_prober(
    const probes::FixedIntervalProber::Config& cfg) {
    probes::FixedIntervalProber::Config local = cfg;
    if (local.flow == 0) local.flow = next_probe_flow_;
    next_probe_flow_ = local.flow + 1;
    if (local.stop == TimeNs::max()) local.stop = workload_cfg_.duration;
    fixed_.push_back(std::make_unique<probes::FixedIntervalProber>(testbed_.sched(), local,
                                                                   testbed_.forward_in()));
    testbed_.fwd_demux().bind(local.flow, *fixed_.back());
    return *fixed_.back();
}

probes::StingProber& Experiment::add_sting(const probes::StingProber::Config& cfg) {
    probes::StingProber::Config local = cfg;
    if (local.flow == 0) local.flow = next_probe_flow_;
    next_probe_flow_ = local.flow + 1;
    if (local.stop == TimeNs::max()) local.stop = workload_cfg_.duration;
    sting_.push_back(std::make_unique<probes::StingProber>(
        testbed_.sched(), local, testbed_.forward_in(),
        Rng{workload_cfg_.seed ^ (0x517ULL + local.flow)}));
    // Data segments terminate at a live TCP responder on the far side; its
    // ACKs come back over the reverse path to the prober.
    sting_responders_.push_back(std::make_unique<tcp::TcpReceiver>(
        testbed_.sched(), local.flow, testbed_.reverse_in()));
    testbed_.fwd_demux().bind(local.flow, *sting_responders_.back());
    testbed_.rev_demux().bind(local.flow, *sting_.back());
    return *sting_.back();
}

void Experiment::run() {
    const obs::Span span{"experiment.run", "scenarios"};
    // Drain margin: a couple of RTTs so in-flight packets and ACKs settle.
    const TimeNs margin = seconds_i(2);
    testbed_.sched().run_until(workload_cfg_.duration + margin);
    if (auto* obs = testbed_.qbit_observer()) obs->finalize();
    ran_ = true;
}

std::vector<measure::LossEpisode> Experiment::episodes() const {
    return monitor_->streaming_truth()->episodes();
}

measure::TruthSummary Experiment::truth() const {
    return monitor_->streaming_truth()->finalize();
}

core::MarkingConfig Experiment::default_marking(double p) const {
    core::MarkingConfig m;
    m.tau = tau_for_probe_rate(p, truth_cfg_.slot_width);
    m.alpha = alpha_for_probe_rate(p);
    return m;
}

}  // namespace bb::scenarios

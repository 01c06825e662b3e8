#include "scenarios/sim_record.h"

namespace bb::scenarios {

ExperimentRecorder::ExperimentRecorder(Experiment& exp, const SimRecordingConfig& cfg)
    : exp_{&exp}, cfg_{cfg} {
    obs::Recorder::Config rc;
    rc.enabled = cfg.enabled;
    rc.interval_ns = cfg.interval.ns();
    rc.budget_bins = cfg.budget_bins;
    rc.max_annotations = cfg.max_annotations;
    rec_ = std::make_shared<obs::Recorder>(rc);
    if (!rec_->on()) return;

    using Kind = obs::TimeSeries::Kind;
    Testbed& tb = exp.testbed();
    sim::QueueBase& q = tb.bottleneck();
    rec_->add_probe("sim.queue.delay_s", Kind::gauge,
                    [&q] { return q.queueing_delay().to_seconds(); });
    rec_->add_probe("sim.queue.bytes", Kind::gauge,
                    [&q] { return static_cast<double>(q.queue_bytes()); });
    rec_->add_probe("sim.queue.drops", Kind::counter,
                    [&q] { return static_cast<double>(q.drops()); });
    rec_->add_probe("sim.queue.marks", Kind::counter,
                    [&q] { return static_cast<double>(q.marks()); });
    rec_->add_probe("sim.queue.departures", Kind::counter,
                    [&q] { return static_cast<double>(q.departures()); });
    if (sim::GilbertElliottLink* ge = tb.ge()) {
        rec_->add_probe("sim.ge.bad", Kind::gauge,
                        [ge] { return ge->in_bad_state() ? 1.0 : 0.0; });
        rec_->add_probe("sim.ge.drops", Kind::counter,
                        [ge] { return static_cast<double>(ge->drops()); });
    }
    sim::Scheduler& sched = tb.sched();
    rec_->add_probe("sched.executed", Kind::counter, [&sched] {
        return static_cast<double>(sched.executed_events());
    });
    rec_->add_probe("sched.live_events", Kind::gauge, [&sched] {
        return static_cast<double>(sched.live_events());
    });
    for (const auto& tool : exp.badabing_tools()) {
        const probes::BadabingTool* t = tool.get();
        // One badabing tool per experiment everywhere today; later tools
        // would need per-flow series names.
        rec_->add_probe("probes.badabing.probes_sent", Kind::counter,
                        [t] { return static_cast<double>(t->probes_sent()); });
        rec_->add_probe("probes.badabing.packets_sent", Kind::counter,
                        [t] { return static_cast<double>(t->packets_sent()); });
        rec_->add_probe("probes.badabing.packets_received", Kind::counter,
                        [t] { return static_cast<double>(t->packets_received()); });
        break;
    }

    until_ = cfg_.horizon > TimeNs::zero() ? cfg_.horizon : exp.workload_config().duration;
    sched.schedule_after(cfg_.interval, [this] { sample(); });
}

void ExperimentRecorder::sample() {
    sim::Scheduler& sched = exp_->testbed().sched();
    rec_->sample(sched.now().ns());
    if (sched.now() + cfg_.interval <= until_) {
        sched.schedule_after(cfg_.interval, [this] { sample(); });
    }
}

void ExperimentRecorder::finish() {
    if (finished_ || !rec_->on()) return;
    finished_ = true;
    // Tail sample at the post-drain clock so final counter deltas (drops in
    // the drain margin) are not lost; a windowed recorder ends at its horizon.
    if (cfg_.horizon == TimeNs::zero()) rec_->sample(exp_->testbed().sched().now().ns());
    for (const measure::LossEpisode& ep : exp_->episodes()) {
        rec_->annotate(ep.start.ns(), "episode.start");
        rec_->annotate(ep.end.ns(), "episode.end");
    }
}

}  // namespace bb::scenarios

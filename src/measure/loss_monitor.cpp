#include "measure/loss_monitor.h"

namespace bb::measure {

LossMonitor::LossMonitor(sim::Scheduler& sched, sim::QueueBase& queue, Options opts)
    : queue_{&queue}, opts_{opts} {
    (void)sched;
    if (opts_.streaming_truth) truth_acc_.emplace(*opts_.streaming_truth);
    queue.on_drop([this](const sim::QueueEvent& ev) {
        const bool is_probe = ev.pkt.kind == sim::PacketKind::probe;
        if (is_probe) {
            ++probe_drops_;
        } else {
            ++cross_drops_;
        }
        if (is_probe && !opts_.count_probe_traffic) return;
        ++drops_count_;
        if (truth_acc_) truth_acc_->add_drop(ev.at);
        drops_.push_back(ev.at);
    });
    queue.on_dequeue([this](const sim::QueueEvent& ev) {
        ++successes_;
        if (opts_.record_departures) {
            departures_.push_back(DelayedDeparture{ev.at, ev.at - ev.enqueued_at});
        }
    });
}

void LossMonitor::observe_external_drop(TimeNs at, bool is_probe) {
    // Mirrors the on_drop hook body: external losses count toward the same
    // truth record as queue drops.
    if (is_probe) {
        ++probe_drops_;
    } else {
        ++cross_drops_;
    }
    if (is_probe && !opts_.count_probe_traffic) return;
    ++drops_count_;
    if (truth_acc_) truth_acc_->add_drop(at);
    drops_.push_back(at);
}

double LossMonitor::router_loss_rate() const noexcept {
    const auto lost = static_cast<double>(drops_count_);
    const auto total = lost + static_cast<double>(successes_);
    return total > 0 ? lost / total : 0.0;
}

QueueSampler::QueueSampler(sim::Scheduler& sched, const sim::QueueBase& queue,
                           TimeNs interval, TimeNs until)
    : sched_{&sched}, queue_{&queue}, interval_{interval}, until_{until} {
    sched_->schedule_after(interval_, [this] { sample(); });
}

void QueueSampler::sample() {
    series_.add(sched_->now().to_seconds(), queue_->queueing_delay().to_seconds());
    if (sched_->now() + interval_ <= until_) {
        sched_->schedule_after(interval_, [this] { sample(); });
    }
}

}  // namespace bb::measure

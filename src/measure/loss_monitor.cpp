#include "measure/loss_monitor.h"

#include "util/contract.h"

namespace bb::measure {

LossMonitor::LossMonitor(sim::Scheduler& sched, sim::QueueBase& queue, Options opts)
    : queue_{&queue}, opts_{opts} {
    (void)sched;
    if (opts_.streaming_truth) {
        truth_acc_.emplace(*opts_.streaming_truth);
        feeds_departures_ = opts_.streaming_truth->delay_floor.has_value();
    }
    queue.on_drop([this](const sim::QueueEvent& ev) {
        observe_drop(ev.at, ev.pkt.kind == sim::PacketKind::probe);
    });
    queue.on_dequeue([this](const sim::QueueEvent& ev) {
        if (ev.pkt.kind != sim::PacketKind::probe || opts_.count_probe_traffic) ++successes_;
        if (feeds_departures_) truth_acc_->add_departure(ev.at, ev.at - ev.enqueued_at);
    });
}

bool LossMonitor::observe_drop(TimeNs at, bool is_probe) {
    if (is_probe) {
        ++probe_drops_;
    } else {
        ++cross_drops_;
    }
    if (is_probe && !opts_.count_probe_traffic) return false;
    ++drops_count_;
    if (truth_acc_) truth_acc_->add_drop(at);
    drops_.push_back(at);
    return true;
}

void LossMonitor::observe_external_drop(TimeNs at, bool is_probe) {
    // The packet's departure from the queue counted in S; it is lost now.
    if (!observe_drop(at, is_probe)) return;
    BB_DCHECK_MSG(successes_ > 0, "external drop of a packet that never left the queue");
    --successes_;
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

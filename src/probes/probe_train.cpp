#include "probes/probe_train.h"

#include <stdexcept>

namespace bb::probes {

ProbeTrain::ProbeTrain(sim::Scheduler& sched, sim::PacketSink& out, std::uint64_t first_id,
                       int packets, TimeNs gap, TimeNs spacing)
    : sched_{&sched}, out_{&out}, lane_{sched}, next_id_{first_id}, packets_{packets}, gap_{gap} {
    if (packets_ > 1 && gap_ * (packets_ - 1) >= spacing) {
        throw std::invalid_argument{
            "probe train: (packets_per_probe - 1) x intra_probe_gap must be shorter than the "
            "spacing between probes"};
    }
}

void ProbeTrain::send(sim::Packet pkt) {
    for (int k = 0; k < packets_; ++k) {
        pkt.id = ++next_id_;
        pkt.probe_pkt = k;
        pkt.sent_at = sched_->now() + gap_ * k;
        if (k == 0) {
            out_->accept(pkt);
        } else {
            lane_.deliver_after(gap_ * k, pkt, *out_);
        }
    }
}

}  // namespace bb::probes

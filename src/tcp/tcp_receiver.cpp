#include "tcp/tcp_receiver.h"

#include <algorithm>

namespace bb::tcp {

TcpReceiver::TcpReceiver(sim::Scheduler& sched, sim::FlowId flow, sim::PacketSink& ack_path,
                         Options opts)
    : sched_{&sched},
      flow_{flow},
      ack_path_{&ack_path},
      opts_{opts},
      next_ack_id_{sim::flow_id_block(0x02, flow)} {}

TcpReceiver::~TcpReceiver() { disarm_delayed_ack(); }

void TcpReceiver::accept(const sim::Packet& pkt) {
    if (pkt.kind != sim::PacketKind::data || pkt.flow != flow_) return;
    ++segments_;
    // CE mark from an AQM on the path: latch it for the next ACK.  (No CWR
    // handshake here — the sender's once-per-RTT guard plays that role.)
    if (pkt.ecn_ce) {
        ++ce_received_;
        ce_pending_ = true;
    }

    const std::int64_t start = pkt.seq;
    const std::int64_t len = pkt.size_bytes;  // payload length == wire size here
    bool in_order = false;
    if (start + len > rcv_next_) {
        if (start > rcv_next_) {
            ++ooo_;
            // Store the hole-filling segment (dedup by start; lengths equal).
            const auto at = std::lower_bound(
                pending_.begin(), pending_.end(), start,
                [](const Segment& s, std::int64_t key) { return s.start < key; });
            if (at == pending_.end() || at->start != start) pending_.insert(at, {start, len});
        } else {
            rcv_next_ = start + len;
            in_order = true;
        }
        // Drain any now-contiguous buffered segments.
        auto done = pending_.begin();
        for (; done != pending_.end() && done->start <= rcv_next_; ++done) {
            rcv_next_ = std::max(rcv_next_, done->start + done->len);
        }
        pending_.erase(pending_.begin(), done);
        // A filled hole returns the store's memory: a web run keeps thousands
        // of finished receivers alive, and their kept capacity would add up.
        if (pending_.empty() && pending_.capacity() > 0) pending_ = std::vector<Segment>{};
    }

    // Duplicate or out-of-order data must be acknowledged immediately so the
    // sender sees duplicate ACKs; in-order data may be delayed.
    if (!in_order || opts_.ack_every <= 1) {
        send_ack(pkt.sent_at);
        return;
    }
    if (++unacked_segments_ >= opts_.ack_every) {
        send_ack(pkt.sent_at);
    } else {
        arm_delayed_ack(pkt.sent_at);
    }
}

void TcpReceiver::send_ack(TimeNs echo) {
    disarm_delayed_ack();
    unacked_segments_ = 0;
    sim::Packet ack;
    ack.id = ++next_ack_id_;
    ack.flow = flow_;
    ack.kind = sim::PacketKind::ack;
    ack.size_bytes = opts_.ack_size_bytes;
    ack.ack_seq = rcv_next_;
    ack.sent_at = sched_->now();
    ack.tstamp_echo = echo;
    ack.ecn_echo = ce_pending_;
    ce_pending_ = false;
    ++acks_sent_;
    ack_path_->accept(ack);
}

void TcpReceiver::arm_delayed_ack(TimeNs echo) {
    if (delack_armed_) return;
    delack_armed_ = true;
    delack_event_ = sched_->schedule_after(opts_.delayed_ack_timeout, [this, echo] {
        delack_armed_ = false;
        send_ack(echo);
    });
}

void TcpReceiver::disarm_delayed_ack() {
    if (delack_armed_) {
        sched_->cancel(delack_event_);
        delack_armed_ = false;
    }
}

}  // namespace bb::tcp

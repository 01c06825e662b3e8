#include "tcp/tcp_sender.h"

#include <algorithm>

namespace bb::tcp {

TcpSender::TcpSender(sim::Scheduler& sched, sim::FlowId flow, const TcpConfig& cfg,
                     sim::PacketSink& data_path)
    : sched_{&sched},
      flow_{flow},
      cfg_{cfg},
      data_path_{&data_path},
      cwnd_{static_cast<double>(cfg.initial_cwnd_segments)},
      ssthresh_segments_{cfg.initial_ssthresh_segments},
      rtt_{cfg.rtt},
      next_pkt_id_{sim::flow_id_block(0x01, flow)} {}

TcpSender::~TcpSender() { disarm_rto(); }

void TcpSender::start(TimeNs at) {
    sched_->schedule_at(at, [this] {
        started_ = true;
        send_allowed();
    });
}

std::int64_t TcpSender::window_bytes() const noexcept {
    const auto cwnd_seg = static_cast<std::int64_t>(cwnd_);
    const std::int64_t win = std::min(cwnd_seg, cfg_.rwnd_segments);
    return std::max<std::int64_t>(win, 1) * cfg_.segment_bytes;
}

void TcpSender::send_allowed() {
    if (!started_ || finished_) return;
    while (flight_bytes() + cfg_.segment_bytes <= window_bytes() && data_available(snd_nxt_)) {
        transmit(snd_nxt_, /*retransmission=*/false);
        snd_nxt_ += cfg_.segment_bytes;
    }
}

void TcpSender::transmit(std::int64_t seq, bool retransmission) {
    sim::Packet pkt;
    pkt.id = ++next_pkt_id_;
    pkt.flow = flow_;
    pkt.kind = sim::PacketKind::data;
    pkt.size_bytes = cfg_.segment_bytes;
    pkt.seq = seq;
    pkt.sent_at = sched_->now();
    pkt.ecn_ect = cfg_.ecn;
    ++segments_sent_;
    if (retransmission) ++retransmits_;
    data_path_->accept(pkt);
    if (!rto_armed_) arm_rto();
}

void TcpSender::accept(const sim::Packet& pkt) {
    if (pkt.kind != sim::PacketKind::ack || pkt.flow != flow_ || finished_) return;
    // Echoed CE mark: multiplicative decrease without a loss, at most once
    // per RTT (until the window in force at the last reduction is acked).
    // Loss recovery already halves the window, so it takes precedence.
    if (cfg_.ecn && pkt.ecn_echo && !in_recovery_ && snd_una_ >= ecn_cwr_end_) {
        const std::int64_t flight_seg = flight_bytes() / cfg_.segment_bytes;
        ssthresh_segments_ = std::max<std::int64_t>(flight_seg / 2, 2);
        cwnd_ = static_cast<double>(ssthresh_segments_);
        ecn_cwr_end_ = snd_nxt_;
        ++ecn_responses_;
    }
    if (pkt.ack_seq > snd_una_) {
        handle_new_ack(pkt.ack_seq, pkt.tstamp_echo);
    } else if (pkt.ack_seq == snd_una_ && flight_bytes() > 0) {
        handle_dupack();
    }
}

void TcpSender::handle_new_ack(std::int64_t ack, TimeNs echo) {
    // Timestamp-echo RTT sample: valid for retransmitted segments too.
    if (echo.ns() > 0) rtt_.add_sample(sched_->now() - echo);

    snd_una_ = ack;
    dupacks_ = 0;

    if (in_recovery_) {
        if (ack >= recover_ || cfg_.congestion_control == CongestionControl::reno) {
            // Full ACK (or classic Reno, which exits on any new ACK):
            // leave fast recovery, deflate to ssthresh.
            in_recovery_ = false;
            cwnd_ = static_cast<double>(ssthresh_segments_);
        } else {
            // Partial ACK (NewReno): retransmit the next hole, stay in
            // recovery, deflate by the amount acked then inflate by one MSS.
            transmit(snd_una_, /*retransmission=*/true);
            cwnd_ = std::max(1.0, cwnd_ - 1.0);
        }
    } else if (static_cast<std::int64_t>(cwnd_) < ssthresh_segments_) {
        cwnd_ += 1.0;  // slow start: one segment per ACK
    } else {
        cwnd_ += 1.0 / std::max(cwnd_, 1.0);  // congestion avoidance
    }

    // Restart the retransmission timer for remaining in-flight data.
    if (flight_bytes() > 0) {
        arm_rto();
    } else {
        disarm_rto();
    }

    if (cfg_.bytes_to_send > 0 && snd_una_ >= cfg_.bytes_to_send) {
        finished_ = true;
        disarm_rto();
        if (complete_cb_) complete_cb_();
        return;
    }
    send_allowed();
}

void TcpSender::handle_dupack() {
    ++dupacks_;
    if (in_recovery_) {
        // Inflate the window for each additional dup ACK and try to send.
        cwnd_ += 1.0;
        send_allowed();
        return;
    }
    if (dupacks_ == cfg_.dupack_threshold) {
        ++fast_rtx_;
        enter_fast_recovery();
    }
}

void TcpSender::enter_fast_recovery() {
    const std::int64_t flight_seg = flight_bytes() / cfg_.segment_bytes;
    ssthresh_segments_ = std::max<std::int64_t>(flight_seg / 2, 2);
    if (cfg_.congestion_control == CongestionControl::tahoe) {
        // Tahoe: retransmit and fall back to slow start; no recovery phase.
        cwnd_ = 1.0;
        dupacks_ = 0;
    } else {
        recover_ = snd_nxt_;
        cwnd_ = static_cast<double>(ssthresh_segments_ + cfg_.dupack_threshold);
        in_recovery_ = true;
    }
    transmit(snd_una_, /*retransmission=*/true);
    arm_rto();
}

void TcpSender::arm_rto() {
    const TimeNs at = sched_->now() + rtt_.rto();
    if (rto_armed_) {
        // Restarting a running timer re-keys it in place.
        rto_event_ = sched_->reschedule(rto_event_, at);
        return;
    }
    rto_armed_ = true;
    rto_event_ = sched_->schedule_at(at, [this] { on_rto(); });
}

void TcpSender::disarm_rto() {
    if (rto_armed_) {
        sched_->cancel(rto_event_);
        rto_armed_ = false;
    }
}

void TcpSender::on_rto() {
    rto_armed_ = false;
    if (finished_ || flight_bytes() <= 0) return;
    ++timeouts_;
    // Classic response: collapse to one segment, halve ssthresh, back off.
    const std::int64_t flight_seg = flight_bytes() / cfg_.segment_bytes;
    ssthresh_segments_ = std::max<std::int64_t>(flight_seg / 2, 2);
    cwnd_ = 1.0;
    dupacks_ = 0;
    in_recovery_ = false;
    rtt_.backoff();
    // Go-back-N from the first unacknowledged byte.
    snd_nxt_ = snd_una_ + cfg_.segment_bytes;
    transmit(snd_una_, /*retransmission=*/true);
}

}  // namespace bb::tcp

#include "probes/sting.h"


namespace bb::probes {

StingProber::StingProber(sim::Scheduler& sched, const Config& cfg, sim::PacketSink& out,
                         Rng rng)
    : sched_{&sched},
      cfg_{cfg},
      out_{&out},
      next_id_{sim::flow_id_block(0x57, cfg.flow)},
      rng_{std::move(rng)} {
    sched_->schedule_at(cfg_.start, [this] { start_burst(); });
}

StingProber::~StingProber() { disarm_rto(); }

void StingProber::start_burst() {
    if (sched_->now() >= cfg_.stop) return;
    in_burst_ = true;
    filling_ = false;
    last_hole_ = -1;
    burst_start_data_ = data_packets_;
    burst_start_holes_ = holes_filled_;
    burst_start_retx_ = retransmissions_;
    burst_base_ = cum_ack_;  // sequence space continues across bursts
    burst_end_ = burst_base_ + static_cast<std::int64_t>(cfg_.burst_segments) *
                                   cfg_.segment_bytes;
    // Phase 1: seed the burst.
    for (int k = 0; k < cfg_.burst_segments; ++k) {
        const std::int64_t seq = burst_base_ + static_cast<std::int64_t>(k) *
                                                   cfg_.segment_bytes;
        sched_->schedule_after(cfg_.seed_spacing * k,
                               [this, seq] { send_segment(seq, false); });
    }
    // Phase 2 begins when the seeding window has drained (or stalls).
    sched_->schedule_after(cfg_.seed_spacing * cfg_.burst_segments + cfg_.retransmit_timeout,
                           [this] { on_rto(); });
}

void StingProber::send_segment(std::int64_t seq, bool retransmission) {
    sim::Packet pkt;
    pkt.id = ++next_id_;
    pkt.flow = cfg_.flow;
    pkt.kind = sim::PacketKind::data;
    pkt.size_bytes = cfg_.segment_bytes;
    pkt.seq = seq;
    pkt.sent_at = sched_->now();
    if (retransmission) {
        ++retransmissions_;
    } else {
        ++data_packets_;
    }
    out_->accept(pkt);
}

void StingProber::accept(const sim::Packet& pkt) {
    if (pkt.kind != sim::PacketKind::ack || pkt.flow != cfg_.flow || !in_burst_) return;
    if (pkt.ack_seq <= cum_ack_) return;  // duplicate
    cum_ack_ = pkt.ack_seq;
    if (cum_ack_ >= burst_end_) {
        finish_burst();
        return;
    }
    // The cumulative ACK stalled below the end: the byte at cum_ack_ is a
    // hole.  Fill it (each distinct hole is one seeding loss).
    if (!filling_) return;  // still seeding; wait for phase 2
    if (cum_ack_ != last_hole_) {
        last_hole_ = cum_ack_;
        ++holes_filled_;
        send_segment(cum_ack_, true);
        disarm_rto();
        arm_rto();
    }
}

void StingProber::on_rto() {
    rto_armed_ = false;
    if (!in_burst_) return;
    if (cum_ack_ >= burst_end_) {
        finish_burst();
        return;
    }
    // Enter / continue phase 2: the current hole (first unacked byte).
    filling_ = true;
    if (cum_ack_ != last_hole_) {
        last_hole_ = cum_ack_;
        ++holes_filled_;
    }
    send_segment(cum_ack_, true);  // (re)fill; counts once per distinct hole
    arm_rto();
}

void StingProber::finish_burst() {
    in_burst_ = false;
    filling_ = false;
    disarm_rto();
    if (burst_sink_) {
        StingBurstReport report;
        report.burst_index = bursts_completed_;
        report.data_packets = data_packets_ - burst_start_data_;
        report.holes_filled = holes_filled_ - burst_start_holes_;
        report.retransmissions = retransmissions_ - burst_start_retx_;
        report.completed_at = sched_->now();
        burst_sink_->consume(report);
    }
    ++bursts_completed_;
    sched_->schedule_after(cfg_.burst_interval, [this] { start_burst(); });
}

void StingProber::arm_rto() {
    rto_armed_ = true;
    const double jitter = 1.0 + rng_.uniform(-cfg_.rto_jitter, cfg_.rto_jitter);
    const TimeNs timeout = seconds(cfg_.retransmit_timeout.to_seconds() * jitter);
    rto_event_ = sched_->schedule_after(timeout, [this] { on_rto(); });
}

void StingProber::disarm_rto() {
    if (rto_armed_) {
        sched_->cancel(rto_event_);
        rto_armed_ = false;
    }
}

StingResult StingProber::result() const {
    StingResult res;
    res.data_packets = data_packets_;
    res.holes_filled = holes_filled_;
    res.retransmissions = retransmissions_;
    res.bursts_completed = bursts_completed_;
    res.forward_loss_rate =
        data_packets_ > 0
            ? static_cast<double>(holes_filled_) / static_cast<double>(data_packets_)
            : 0.0;
    return res;
}

}  // namespace bb::probes

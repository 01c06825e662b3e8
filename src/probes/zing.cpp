#include "probes/zing.h"

#include <algorithm>

namespace bb::probes {

ZingProber::ZingProber(sim::Scheduler& sched, const Config& cfg, sim::PacketSink& out, Rng rng)
    : sched_{&sched},
      cfg_{cfg},
      out_{&out},
      next_id_{sim::flow_id_block(0xC0, cfg.flow)},
      rng_{std::move(rng)} {
    sched_->schedule_at(cfg_.start, [this] { emit(); });
}

void ZingProber::emit() {
    if (sched_->now() >= cfg_.stop) return;
    for (int k = 0; k < cfg_.packets_per_flight; ++k) {
        sim::Packet pkt;
        pkt.id = ++next_id_;
        pkt.flow = cfg_.flow;
        pkt.kind = sim::PacketKind::probe;
        pkt.size_bytes = cfg_.packet_bytes;
        pkt.seq = static_cast<std::int64_t>(send_times_.size());
        pkt.probe_pkt = k;
        pkt.sent_at = sched_->now();
        send_times_.push_back(sched_->now());
        received_.push_back(false);
        owd_.push_back(TimeNs::zero());
        bytes_sent_ += cfg_.packet_bytes;
        out_->accept(pkt);
    }
    sched_->schedule_after(rng_.exponential(cfg_.mean_interval), [this] { emit(); });
}

void ZingProber::accept(const sim::Packet& pkt) {
    if (pkt.kind != sim::PacketKind::probe || pkt.flow != cfg_.flow) return;
    const auto seq = static_cast<std::size_t>(pkt.seq);
    if (seq < received_.size()) {
        received_[seq] = true;
        owd_[seq] = sched_->now() - pkt.sent_at;
    }
}

void ZingProber::stream_outcomes(core::OutcomeSink& sink) const {
    for (std::size_t i = 0; i < send_times_.size(); ++i) {
        core::ProbeOutcome po;
        po.slot = static_cast<core::SlotIndex>(i);
        po.send_time = send_times_[i];
        po.packets_sent = 1;
        po.packets_lost = received_[i] ? 0 : 1;
        po.max_owd = owd_[i];
        po.any_received = received_[i];
        sink.consume(po);
    }
}

std::vector<core::ProbeOutcome> ZingProber::outcomes() const {
    core::VectorSink<core::ProbeOutcome> sink;
    sink.reserve(send_times_.size());
    stream_outcomes(sink);
    return sink.take();
}

ZingResult ZingProber::result() const {
    ZingRunAccumulator acc;
    stream_outcomes(acc);
    return acc.finalize();
}

void ZingRunAccumulator::consume(const core::ProbeOutcome& po) {
    ++partial_.sent;
    if (po.any_received) {
        ++partial_.received;
        if (run_len_ > 0) {
            // A run closes on the first received probe after it; its span is
            // first-lost .. last-lost, exactly the batch send_times_[i-1]
            // minus send_times_[run_start].
            durations_.add((last_lost_ - run_start_).to_seconds());
            partial_.max_run_length = std::max(partial_.max_run_length, run_len_);
            ++partial_.loss_runs;
            run_len_ = 0;
        }
    } else {
        ++partial_.lost;
        if (run_len_ == 0) run_start_ = po.send_time;
        last_lost_ = po.send_time;
        ++run_len_;
    }
}

ZingResult ZingRunAccumulator::finalize() const {
    ZingResult res = partial_;
    RunningStats durations = durations_;
    if (run_len_ > 0) {
        durations.add((last_lost_ - run_start_).to_seconds());
        res.max_run_length = std::max(res.max_run_length, run_len_);
        ++res.loss_runs;
    }
    res.loss_frequency =
        res.sent > 0 ? static_cast<double>(res.lost) / static_cast<double>(res.sent) : 0.0;
    res.mean_duration_s = durations.mean();
    res.sd_duration_s = durations.stddev();
    return res;
}

}  // namespace bb::probes

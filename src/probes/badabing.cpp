#include "probes/badabing.h"

#include <algorithm>

#include "core/streaming.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/contract.h"

namespace bb::probes {

BadabingTool::BadabingTool(sim::Scheduler& sched, const BadabingConfig& cfg,
                           sim::PacketSink& out, Rng rng)
    : sched_{&sched},
      cfg_{cfg},
      out_{&out},
      probe_lane_{sched, [this] { emit_probe(design_.probe_slots[next_probe_++]); }},
      next_id_{sim::flow_id_block(0xBA, cfg.flow)} {
    core::ProbeProcessConfig pcfg;
    pcfg.p = cfg_.p;
    pcfg.improved = cfg_.improved;
    pcfg.extended_fraction = cfg_.extended_fraction;
    design_ = core::design_probe_process(rng, cfg_.total_slots, pcfg);
    records_.resize(design_.probe_slots.size());

    // The design's slots are sorted and unique, so the whole schedule rides
    // one lane in time order, and the lane's k-th entry probes the k-th slot.
    for (const core::SlotIndex slot : design_.probe_slots) {
        probe_lane_.schedule_at(cfg_.start + cfg_.slot_width * slot);
    }
}

void BadabingTool::emit_probe(core::SlotIndex slot) {
    ++probes_sent_;
    // bb-det: allow(no-mutable-static) — obs registry cache, telemetry only
    static obs::Counter& sent_ctr = obs::counter("probes.badabing.probes_sent");
    sent_ctr.inc();
    for (int k = 0; k < cfg_.packets_per_probe; ++k) {
        sim::Packet pkt;
        pkt.id = ++next_id_;
        pkt.flow = cfg_.flow;
        pkt.kind = sim::PacketKind::probe;
        pkt.size_bytes = cfg_.packet_bytes;
        pkt.seq = slot;
        pkt.probe_pkt = k;
        pkt.sent_at = sched_->now();
        pkt.ecn_ect = cfg_.ecn_probes;
        ++packets_sent_;
        bytes_sent_ += cfg_.packet_bytes;
        // Back-to-back emission: successive packets leave `intra_probe_gap`
        // apart, per the capabilities of the paper's hosts (~30 us).
        if (k == 0) {
            out_->accept(pkt);
        } else {
            // Parked in the per-replica pool; re-stamped at emission time.
            const sim::PacketPool::Handle h = sched_->packet_pool().put(pkt);
            sched_->schedule_after(cfg_.intra_probe_gap * k, [this, h] {
                sim::Packet p = sched_->packet_pool().take(h);
                p.sent_at = sched_->now();
                out_->accept(p);
            });
        }
    }
}

void BadabingTool::accept(const sim::Packet& pkt) {
    if (pkt.kind != sim::PacketKind::probe || pkt.flow != cfg_.flow) return;
    // bb-det: allow(no-mutable-static) — obs registry cache, telemetry only
    static obs::Counter& recv_ctr = obs::counter("probes.badabing.packets_received");
    recv_ctr.inc();
    ++packets_received_;
    const auto& slots = design_.probe_slots;
    const auto it = std::lower_bound(slots.begin(), slots.end(), pkt.seq);
    if (it == slots.end() || *it != pkt.seq) return;  // not a designed probe slot
    SlotRecord& rec = records_[static_cast<std::size_t>(it - slots.begin())];
    ++rec.received;
    if (pkt.ecn_ce) rec.ce = true;
    const TimeNs skew =
        seconds(sched_->now().to_seconds() * cfg_.receiver_clock_skew_ppm * 1e-6);
    const TimeNs owd = sched_->now() + cfg_.receiver_clock_offset + skew - pkt.sent_at;
    rec.max_owd = std::max(rec.max_owd, owd);
}

void BadabingTool::stream_outcomes(core::OutcomeSink& sink) const {
    for (std::size_t i = 0; i < design_.probe_slots.size(); ++i) {
        const core::SlotIndex slot = design_.probe_slots[i];
        const SlotRecord& rec = records_[i];
        core::ProbeOutcome po;
        po.slot = slot;
        po.send_time = cfg_.start + cfg_.slot_width * slot;
        po.packets_sent = cfg_.packets_per_probe;
        po.packets_lost = cfg_.packets_per_probe - rec.received;
        po.max_owd = rec.max_owd;
        po.any_received = rec.received > 0;
        po.ce_marked = rec.ce;
        sink.consume(po);
    }
}

std::vector<core::ProbeOutcome> BadabingTool::outcomes() const {
    core::VectorSink<core::ProbeOutcome> sink;
    sink.reserve(design_.probe_slots.size());
    stream_outcomes(sink);
    return sink.take();
}

void BadabingTool::emit_reports(const core::MarkingConfig& marking,
                                core::ReportSink& sink) const {
    const std::vector<core::ProbeOutcome> probe_outcomes = outcomes();

    core::CongestionMarker marker{marking};
    const std::vector<core::SlotMark> marks = marker.mark(probe_outcomes);

    // One mark per probed slot, in slot order.
    core::score_experiments_into(
        design_.experiments,
        [&marks](core::SlotIndex s) {
            const auto it = std::lower_bound(
                marks.begin(), marks.end(), s,
                [](const core::SlotMark& m, core::SlotIndex key) { return m.slot < key; });
            return it != marks.end() && it->slot == s && it->congested;
        },
        sink);
}

BadabingResult BadabingTool::analyze(const core::MarkingConfig& marking,
                                     core::EstimatorOptions opts) const {
    const obs::Span span{"badabing.analyze", "probes"};
    BadabingResult res;
    core::StreamingAnalyzer analyzer{opts};
    emit_reports(marking, analyzer);

    const core::StreamingAnalyzer::Result summary = analyzer.finalize();
    // Every designed experiment must be scored exactly once: the §5.2.2
    // estimators divide by the experiment count, so a silently dropped or
    // double-scored report skews ŷ tallies without any other symptom.
    BB_CHECK_MSG(summary.reports == design_.experiments.size(),
                 "badabing: scored report count != designed experiment count");
    res.counts = analyzer.counts();
    res.frequency = summary.frequency;
    res.duration_basic = summary.duration_basic;
    res.duration_improved = summary.duration_improved;
    res.validation = summary.validation;

    res.probes_sent = probes_sent_;
    res.packets_sent = packets_sent_;
    res.bytes_sent = bytes_sent_;
    res.experiments = design_.experiments.size();
    auto count_lost = core::make_fn_sink<core::ProbeOutcome>([&res](const core::ProbeOutcome& po) {
        res.packets_lost += static_cast<std::uint64_t>(po.packets_lost);
    });
    stream_outcomes(count_lost);
    return res;
}

double BadabingTool::offered_load_fraction(std::int64_t link_rate_bps) const noexcept {
    const TimeNs span = cfg_.slot_width * cfg_.total_slots;
    const double link_bytes =
        static_cast<double>(link_rate_bps) / 8.0 * span.to_seconds();
    return link_bytes > 0 ? static_cast<double>(bytes_sent_) / link_bytes : 0.0;
}

// --- FixedIntervalProber ----------------------------------------------------

FixedIntervalProber::FixedIntervalProber(sim::Scheduler& sched, const Config& cfg,
                                         sim::PacketSink& out)
    : sched_{&sched}, cfg_{cfg}, out_{&out}, next_id_{sim::flow_id_block(0xB1, cfg.flow)} {
    sched_->schedule_at(cfg_.start, [this] { emit(); });
}

void FixedIntervalProber::emit() {
    if (sched_->now() >= cfg_.stop) return;
    const auto probe_index = static_cast<std::int64_t>(send_times_.size());
    send_times_.push_back(sched_->now());
    received_.push_back(0);
    max_owd_.push_back(TimeNs::zero());
    for (int k = 0; k < cfg_.packets_per_probe; ++k) {
        sim::Packet pkt;
        pkt.id = ++next_id_;
        pkt.flow = cfg_.flow;
        pkt.kind = sim::PacketKind::probe;
        pkt.size_bytes = cfg_.packet_bytes;
        pkt.seq = probe_index;
        pkt.probe_pkt = k;
        pkt.sent_at = sched_->now();
        if (k == 0) {
            out_->accept(pkt);
        } else {
            const sim::PacketPool::Handle h = sched_->packet_pool().put(pkt);
            sched_->schedule_after(cfg_.intra_probe_gap * k, [this, h] {
                sim::Packet p = sched_->packet_pool().take(h);
                p.sent_at = sched_->now();
                out_->accept(p);
            });
        }
    }
    sched_->schedule_after(cfg_.interval, [this] { emit(); });
}

void FixedIntervalProber::accept(const sim::Packet& pkt) {
    if (pkt.kind != sim::PacketKind::probe || pkt.flow != cfg_.flow) return;
    const auto idx = static_cast<std::size_t>(pkt.seq);
    if (idx >= send_times_.size()) return;
    ++received_[idx];
    max_owd_[idx] = std::max(max_owd_[idx], sched_->now() - pkt.sent_at);
}

void FixedIntervalProber::stream_outcomes(core::OutcomeSink& sink) const {
    for (std::size_t i = 0; i < send_times_.size(); ++i) {
        core::ProbeOutcome po;
        po.slot = static_cast<core::SlotIndex>(i);
        po.send_time = send_times_[i];
        po.packets_sent = cfg_.packets_per_probe;
        po.packets_lost = cfg_.packets_per_probe - received_[i];
        po.max_owd = max_owd_[i];
        po.any_received = received_[i] > 0;
        sink.consume(po);
    }
}

std::vector<core::ProbeOutcome> FixedIntervalProber::outcomes() const {
    core::VectorSink<core::ProbeOutcome> sink;
    sink.reserve(send_times_.size());
    stream_outcomes(sink);
    return sink.take();
}

}  // namespace bb::probes

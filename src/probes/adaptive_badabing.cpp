#include "probes/adaptive_badabing.h"

#include <algorithm>

namespace bb::probes {

AdaptiveBadabingTool::AdaptiveBadabingTool(sim::Scheduler& sched,
                                           const AdaptiveBadabingConfig& cfg,
                                           sim::PacketSink& out, Rng rng)
    : sched_{&sched},
      cfg_{cfg},
      train_{sched, out, sim::flow_id_block(0xAD, cfg.flow), cfg.packets_per_probe,
             cfg.intra_probe_gap, cfg.slot_width},
      rng_{std::move(rng)},
      design_{cfg.p, cfg.improved, cfg.extended_fraction},
      rule_{cfg.stopping} {
    sched_->schedule_at(cfg_.start, [this] { slot_tick(); });
    sched_->schedule_at(cfg_.start + cfg_.evaluation_interval, [this] { evaluate(); });
}

void AdaptiveBadabingTool::slot_tick() {
    if (stopped_) return;
    const TimeNs elapsed = sched_->now() - cfg_.start;
    if (elapsed >= cfg_.max_duration) {
        stopped_ = true;
        stopped_at_ = sched_->now();
        return;
    }

    if (const auto kind = core::draw_experiment_start(rng_, design_)) {
        const core::Experiment e{current_slot_, *kind};
        experiments_.push_back(e);
        for (int k = 0; k < e.probes(); ++k) {
            const core::SlotIndex slot = current_slot_ + k;
            if (probe_sent_at_.contains(slot)) continue;  // shared with overlap
            probe_sent_at_.emplace(slot, cfg_.start + cfg_.slot_width * slot);
            if (k == 0) {
                emit_probe(slot);
            } else {
                sched_->schedule_after(cfg_.slot_width * k,
                                       [this, slot] { emit_probe(slot); });
            }
        }
    }
    ++current_slot_;
    sched_->schedule_after(cfg_.slot_width, [this] { slot_tick(); });
}

void AdaptiveBadabingTool::emit_probe(core::SlotIndex slot) {
    ++probes_sent_;
    sim::Packet pkt;
    pkt.flow = cfg_.flow;
    pkt.kind = sim::PacketKind::probe;
    pkt.size_bytes = cfg_.packet_bytes;
    pkt.seq = slot;
    train_.send(pkt);
}

void AdaptiveBadabingTool::accept(const sim::Packet& pkt) {
    if (pkt.kind != sim::PacketKind::probe || pkt.flow != cfg_.flow) return;
    SlotRecord& rec = records_[pkt.seq];
    ++rec.received;
    rec.max_owd = std::max(rec.max_owd, sched_->now() - pkt.sent_at);
}

core::StateCounts AdaptiveBadabingTool::counts_up_to(TimeNs horizon) const {
    // Assemble outcomes for probes old enough to have settled.
    std::vector<core::ProbeOutcome> outcomes;
    outcomes.reserve(probe_sent_at_.size());
    core::SlotIndex last_settled = -1;
    for (const auto& [slot, sent_at] : probe_sent_at_) {
        if (sent_at > horizon) continue;
        core::ProbeOutcome po;
        po.slot = slot;
        po.send_time = sent_at;
        po.packets_sent = cfg_.packets_per_probe;
        if (const auto it = records_.find(slot); it != records_.end()) {
            po.packets_lost = cfg_.packets_per_probe - it->second.received;
            po.max_owd = it->second.max_owd;
            po.any_received = it->second.received > 0;
        } else {
            po.packets_lost = cfg_.packets_per_probe;
        }
        outcomes.push_back(po);
        last_settled = std::max(last_settled, slot);
    }
    std::sort(outcomes.begin(), outcomes.end(),
              [](const core::ProbeOutcome& a, const core::ProbeOutcome& b) {
                  return a.send_time < b.send_time;
              });

    core::CongestionMarker marker{cfg_.marking};
    const auto marks = marker.mark(outcomes);
    std::map<core::SlotIndex, bool> congested;
    for (const auto& m : marks) congested[m.slot] = m.congested;

    std::vector<core::Experiment> complete;
    complete.reserve(experiments_.size());
    for (const auto& e : experiments_) {
        if (e.start_slot + e.probes() - 1 <= last_settled) complete.push_back(e);
    }
    core::CountsSink counts;
    core::score_experiments_into(
        complete,
        [&congested](core::SlotIndex s) {
            const auto it = congested.find(s);
            return it != congested.end() && it->second;
        },
        counts);
    return counts.counts();
}

void AdaptiveBadabingTool::evaluate() {
    if (stopped_) return;
    const auto counts = counts_up_to(sched_->now() - cfg_.settle_margin);
    decision_ = rule_.evaluate(counts);
    if (decision_ != core::StoppingRule::Decision::keep_going) {
        stopped_ = true;
        stopped_at_ = sched_->now();
        return;
    }
    sched_->schedule_after(cfg_.evaluation_interval, [this] { evaluate(); });
}

AdaptiveBadabingTool::Snapshot AdaptiveBadabingTool::snapshot() const {
    Snapshot snap;
    const auto counts = counts_up_to(sched_->now());
    snap.frequency = core::estimate_frequency(counts);
    snap.duration_basic = core::estimate_duration_basic(counts);
    snap.duration_improved = core::estimate_duration_improved(counts);
    snap.validation = core::validate(counts);
    return snap;
}

}  // namespace bb::probes

#include "traffic/episodic.h"

#include <stdexcept>

namespace bb::traffic {

EpisodicBurstSource::EpisodicBurstSource(sim::Scheduler& sched, const Config& cfg,
                                         sim::PacketSink& out, Rng rng)
    : sched_{&sched},
      cfg_{cfg},
      out_{&out},
      burst_rate_bps_{cfg.burst_rate_bps > 0 ? cfg.burst_rate_bps
                                             : 2 * cfg.bottleneck_rate_bps},
      packet_interval_{transmission_time(cfg.packet_bytes, burst_rate_bps_)},
      next_id_{sim::flow_id_block(0xE9, cfg.flow)},
      rng_{std::move(rng)} {
    if (cfg_.episode_durations.empty()) {
        throw std::invalid_argument{"EpisodicBurstSource: need at least one duration"};
    }
    if (cfg_.bottleneck_capacity_bytes <= 0) {
        throw std::invalid_argument{"EpisodicBurstSource: bottleneck capacity required"};
    }
    sched_->schedule_at(cfg_.start, [this] { schedule_next_burst(); });
}

TimeNs EpisodicBurstSource::burst_length_for(TimeNs episode) const noexcept {
    // Net queue growth rate while bursting: burst + background - capacity.
    const double net_bps = static_cast<double>(burst_rate_bps_) +
                           cfg_.background_load * static_cast<double>(cfg_.bottleneck_rate_bps) -
                           static_cast<double>(cfg_.bottleneck_rate_bps);
    const double fill_seconds =
        net_bps > 0 ? static_cast<double>(cfg_.bottleneck_capacity_bytes) * 8.0 / net_bps
                    : 0.0;
    return seconds(fill_seconds) + episode;
}

void EpisodicBurstSource::schedule_next_burst() {
    const TimeNs gap = rng_.exponential(cfg_.mean_gap);
    const TimeNs at = sched_->now() + gap;
    if (at >= cfg_.stop) return;
    sched_->schedule_at(at, [this] { start_burst(); });
}

void EpisodicBurstSource::start_burst() {
    ++bursts_;
    const auto idx = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(cfg_.episode_durations.size()) - 1));
    const TimeNs burst_end = sched_->now() + burst_length_for(cfg_.episode_durations[idx]);
    emit(burst_end);
    schedule_next_burst();
}

void EpisodicBurstSource::emit(TimeNs burst_end) {
    if (sched_->now() >= burst_end || sched_->now() >= cfg_.stop) return;
    sim::Packet pkt;
    pkt.id = ++next_id_;
    pkt.flow = cfg_.flow;
    pkt.kind = sim::PacketKind::data;
    pkt.size_bytes = cfg_.packet_bytes;
    pkt.seq = static_cast<std::int64_t>(sent_);
    pkt.sent_at = sched_->now();
    ++sent_;
    out_->accept(pkt);
    sched_->schedule_after(packet_interval_, [this, burst_end] { emit(burst_end); });
}

}  // namespace bb::traffic

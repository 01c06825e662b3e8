#include "traffic/web.h"

#include <algorithm>
#include <cmath>

namespace bb::traffic {

WebSessionGenerator::WebSessionGenerator(sim::Scheduler& sched, const Config& cfg,
                                         sim::PacketSink& forward, sim::PacketSink& reverse,
                                         sim::FlowDemux& fwd_demux, sim::FlowDemux& rev_demux,
                                         Rng rng)
    : sched_{&sched},
      cfg_{cfg},
      forward_{&forward},
      reverse_{&reverse},
      fwd_demux_{&fwd_demux},
      rev_demux_{&rev_demux},
      next_flow_{cfg.first_flow},
      session_rate_{cfg.session_rate_per_s},
      rng_{std::move(rng)} {
    sched_->schedule_at(cfg_.start, [this] { schedule_next_session(); });
    if (cfg_.target_offered_bps > 0) {
        sched_->schedule_at(cfg_.start + cfg_.adjust_interval, [this] { adjust_rate(); });
    }
}

void WebSessionGenerator::adjust_rate() {
    if (sched_->now() >= cfg_.stop) return;
    const std::int64_t window_bytes = bytes_offered_ - offered_at_last_adjust_;
    offered_at_last_adjust_ = bytes_offered_;
    const double actual_bps =
        static_cast<double>(window_bytes) * 8.0 / cfg_.adjust_interval.to_seconds();
    // Multiplicative correction toward the target, clamped so one noisy
    // window (a single heavy-tailed object) cannot destabilize the rate.
    const double ratio = actual_bps > 0
                             ? static_cast<double>(cfg_.target_offered_bps) / actual_bps
                             : 2.0;
    session_rate_ *= std::clamp(ratio, 0.5, 2.0);
    session_rate_ = std::clamp(session_rate_, 0.05, 1000.0);
    sched_->schedule_after(cfg_.adjust_interval, [this] { adjust_rate(); });
}

void WebSessionGenerator::schedule_next_session() {
    const TimeNs gap = seconds(rng_.exponential(1.0 / session_rate_));
    const TimeNs at = sched_->now() + gap;
    if (at >= cfg_.stop) return;
    sched_->schedule_at(at, [this] {
        start_session();
        schedule_next_session();
    });
}

void WebSessionGenerator::start_session() {
    ++sessions_;
    // Geometric number of objects with the configured mean (at least 1).
    const double u = rng_.uniform01();
    const double p = 1.0 / std::max(cfg_.objects_per_session_mean, 1.0);
    const auto n = static_cast<std::uint32_t>(
        std::max(1.0, std::ceil(std::log1p(-u) / std::log1p(-p))));
    start_object(n);
}

std::int64_t WebSessionGenerator::draw_object_bytes() {
    const double raw = rng_.pareto(cfg_.pareto_alpha, cfg_.object_min_bytes);
    return static_cast<std::int64_t>(std::min(raw, cfg_.object_max_bytes));
}

void WebSessionGenerator::start_object(std::uint32_t remaining_objects) {
    if (remaining_objects == 0 || sched_->now() >= cfg_.stop) return;
    ++objects_;

    tcp::TcpConfig tcp_cfg = cfg_.tcp;
    const std::int64_t object_bytes = draw_object_bytes();
    // Round up to whole segments; the flow finishes when the last segment is
    // cumulatively acknowledged.
    const std::int64_t segs =
        std::max<std::int64_t>(1, (object_bytes + tcp_cfg.segment_bytes - 1) /
                                       tcp_cfg.segment_bytes);
    tcp_cfg.bytes_to_send = segs * tcp_cfg.segment_bytes;
    bytes_offered_ += tcp_cfg.bytes_to_send;

    const sim::FlowId flow = next_flow_++;
    flows_.push_back(std::make_unique<tcp::TcpFlow>(*sched_, flow, tcp_cfg, *forward_,
                                                    *reverse_, *fwd_demux_, *rev_demux_));
    tcp::TcpFlow& f = *flows_.back();
    f.sender().on_complete([this, remaining_objects] {
        ++completed_;
        const TimeNs think = rng_.exponential(cfg_.think_time_mean);
        sched_->schedule_after(think,
                               [this, remaining_objects] { start_object(remaining_objects - 1); });
    });
    f.sender().start(sched_->now());
}

}  // namespace bb::traffic

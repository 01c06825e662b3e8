// STING-style loss measurement (Savage, INFOCOM 2000; paper §2 related
// work): infer one-way packet loss from a single host by exploiting TCP's
// cumulative-ACK rules, no receiver cooperation beyond a TCP responder.
//
// Two phases, as in the original tool:
//   1. *data seeding*: send a burst of N single-segment probes;
//   2. *hole filling*: repeatedly retransmit the first unacknowledged
//      segment until the cumulative ACK reaches the end.  Each hole that
//      needed filling corresponds to one lost data segment, so
//      forward loss rate = holes / N  — independent of ACK (reverse) loss.
//
// This measures the *packet loss rate* a TCP connection experiences.  Like
// ZING it says nothing about episode durations, which is exactly the gap
// BADABING fills; examples/related_tools.json runs all three on one path.
#ifndef BB_PROBES_STING_H
#define BB_PROBES_STING_H

#include <cstdint>
#include <vector>

#include "core/report_sink.h"
#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/time.h"

namespace bb::probes {

struct StingResult {
    std::uint64_t data_packets{0};   // seeded segments across all bursts
    std::uint64_t holes_filled{0};   // segments that required retransmission
    std::uint64_t retransmissions{0};
    std::size_t bursts_completed{0};
    double forward_loss_rate{0.0};   // holes / data_packets
};

// Per-burst deltas, streamed to an optional sink as each burst completes so
// long-running STING sessions can report incrementally instead of only via
// the cumulative result().
struct StingBurstReport {
    std::size_t burst_index{0};      // 0-based completion order
    std::uint64_t data_packets{0};   // seeded in this burst
    std::uint64_t holes_filled{0};
    std::uint64_t retransmissions{0};
    TimeNs completed_at{TimeNs::zero()};

    [[nodiscard]] double loss_rate() const noexcept {
        return data_packets > 0
                   ? static_cast<double>(holes_filled) / static_cast<double>(data_packets)
                   : 0.0;
    }
};

// The sender half.  Wire its output toward the bottleneck and bind a
// tcp::TcpReceiver (the "responder") for the same flow on the far side, with
// the responder's ACK path routed back to this object.
class StingProber final : public sim::PacketSink {
public:
    struct Config {
        int burst_segments{100};          // N, per burst
        TimeNs seed_spacing{milliseconds(10)};  // spacing within a burst
        TimeNs burst_interval{seconds_i(5)};    // gap between bursts
        TimeNs retransmit_timeout{milliseconds(500)};
        // Timer jitter fraction (real hosts' timers are not phase-exact;
        // without it, a deterministic simulation can phase-lock retransmit
        // attempts against periodic cross traffic).
        double rto_jitter{0.2};
        std::int32_t segment_bytes{41};   // STING used tiny segments
        sim::FlowId flow{7600};
        TimeNs start{TimeNs::zero()};
        TimeNs stop{TimeNs::max()};
    };

    StingProber(sim::Scheduler& sched, const Config& cfg, sim::PacketSink& out,
                Rng rng);
    ~StingProber() override;

    StingProber(const StingProber&) = delete;
    StingProber& operator=(const StingProber&) = delete;

    void accept(const sim::Packet& pkt) override;  // ACKs from the responder

    [[nodiscard]] StingResult result() const;
    [[nodiscard]] bool burst_in_progress() const noexcept { return in_burst_; }

    // Stream per-burst reports into `sink` as bursts complete.  The sink must
    // outlive the prober (or be cleared with set_burst_sink(nullptr)).
    void set_burst_sink(core::Sink<StingBurstReport>* sink) noexcept {
        burst_sink_ = sink;
    }

private:
    void start_burst();
    void send_segment(std::int64_t seq, bool retransmission);
    void on_rto();
    void finish_burst();
    void arm_rto();
    void disarm_rto();

    sim::Scheduler* sched_;
    Config cfg_;
    sim::PacketSink* out_;
    std::uint64_t next_id_;

    bool in_burst_{false};
    std::int64_t burst_base_{0};   // first seq of the current burst
    std::int64_t burst_end_{0};    // one past the last seq of the burst
    std::int64_t cum_ack_{0};      // highest cumulative ACK seen
    std::int64_t last_hole_{-1};   // seq currently being filled
    bool filling_{false};

    sim::EventId rto_event_{0};
    bool rto_armed_{false};

    std::uint64_t data_packets_{0};
    std::uint64_t holes_filled_{0};
    std::uint64_t retransmissions_{0};
    std::size_t bursts_completed_{0};

    // Cumulative counters snapshotted at burst start, for per-burst deltas.
    std::uint64_t burst_start_data_{0};
    std::uint64_t burst_start_holes_{0};
    std::uint64_t burst_start_retx_{0};
    core::Sink<StingBurstReport>* burst_sink_{nullptr};
    Rng rng_;  // last, see util/rng.h
};

}  // namespace bb::probes

#endif  // BB_PROBES_STING_H

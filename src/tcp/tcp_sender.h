// TCP NewReno sender.
//
// Implements slow start, congestion avoidance, fast retransmit, NewReno fast
// recovery with partial-ACK retransmission, and RTO with Jacobson/Karels
// estimation and Karn backoff.  Sequence numbers count wire bytes and every
// segment is `segment_bytes` long; this keeps the arithmetic simple without
// changing the queue/loss dynamics the paper's experiments depend on.
#ifndef BB_TCP_TCP_SENDER_H
#define BB_TCP_TCP_SENDER_H

#include <cstdint>
#include <functional>

#include "sim/packet.h"
#include "sim/scheduler.h"
#include "tcp/rtt_estimator.h"

namespace bb::tcp {

// Congestion-control variant.  The paper's testbed hosts ran NewReno-era
// Linux stacks; Tahoe and plain Reno are provided for the substrate's own
// evaluation (they change how loss episodes look to the prober).
enum class CongestionControl : std::uint8_t {
    tahoe,    // fast retransmit, then slow start from cwnd = 1
    reno,     // fast recovery, exits on the first (possibly partial) new ACK
    newreno,  // fast recovery with partial-ACK retransmission
};

struct TcpConfig {
    std::int32_t segment_bytes{1500};    // full-size frames, as in the paper
    std::int64_t rwnd_segments{256};     // paper §4.2: receive window 256 pkts
    std::int64_t initial_cwnd_segments{2};
    std::int64_t initial_ssthresh_segments{1'000'000};  // effectively unbounded
    int dupack_threshold{3};
    std::int64_t bytes_to_send{0};       // 0 => infinite source
    CongestionControl congestion_control{CongestionControl::newreno};
    // Receiver behaviour: cumulative ACK every `ack_every` in-order segments,
    // with a delayed-ACK timer bounding the wait (RFC 1122 style).
    int ack_every{1};
    TimeNs delayed_ack_timeout{milliseconds(200)};
    RttEstimator::Config rtt{};
    // ECN (RFC 3168, simplified): data segments carry ECT, the receiver
    // echoes CE marks on ACKs, and the sender halves its window at most once
    // per RTT in response — congestion backoff without a lost packet.
    bool ecn{false};
};

class TcpSender final : public sim::PacketSink {
public:
    TcpSender(sim::Scheduler& sched, sim::FlowId flow, const TcpConfig& cfg,
              sim::PacketSink& data_path);
    ~TcpSender() override;

    TcpSender(const TcpSender&) = delete;
    TcpSender& operator=(const TcpSender&) = delete;

    // Begin transmitting at time `at` (absolute).
    void start(TimeNs at);

    // ACK input (wired to the reverse-path demux).
    void accept(const sim::Packet& pkt) override;

    // Completion callback for finite transfers (fires once, when the last
    // byte is cumulatively acknowledged).
    void on_complete(std::function<void()> fn) { complete_cb_ = std::move(fn); }

    [[nodiscard]] bool finished() const noexcept { return finished_; }
    [[nodiscard]] std::int64_t bytes_acked() const noexcept { return snd_una_; }
    [[nodiscard]] double cwnd_segments() const noexcept { return cwnd_; }
    [[nodiscard]] std::uint64_t segments_sent() const noexcept { return segments_sent_; }
    [[nodiscard]] std::uint64_t retransmits() const noexcept { return retransmits_; }
    [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
    [[nodiscard]] std::uint64_t fast_retransmits() const noexcept { return fast_rtx_; }
    // Window reductions triggered by an echoed CE mark (at most one per RTT).
    [[nodiscard]] std::uint64_t ecn_responses() const noexcept { return ecn_responses_; }
    [[nodiscard]] const RttEstimator& rtt() const noexcept { return rtt_; }

private:
    void send_allowed();                   // transmit while window permits
    void transmit(std::int64_t seq, bool retransmission);
    void handle_new_ack(std::int64_t ack, TimeNs echo);
    void handle_dupack();
    void enter_fast_recovery();
    void on_rto();
    void arm_rto();  // start the timer, or restart it if running
    void disarm_rto();

    [[nodiscard]] std::int64_t window_bytes() const noexcept;
    [[nodiscard]] std::int64_t flight_bytes() const noexcept { return snd_nxt_ - snd_una_; }
    [[nodiscard]] bool data_available(std::int64_t seq) const noexcept {
        return cfg_.bytes_to_send == 0 || seq < cfg_.bytes_to_send;
    }

    sim::Scheduler* sched_;
    sim::FlowId flow_;
    TcpConfig cfg_;
    sim::PacketSink* data_path_;

    // Connection state.
    std::int64_t snd_una_{0};
    std::int64_t snd_nxt_{0};
    double cwnd_;                      // in segments; fractional during CA
    std::int64_t ssthresh_segments_;
    int dupacks_{0};
    bool in_recovery_{false};
    std::int64_t recover_{0};          // highest seq outstanding when loss detected
    bool started_{false};
    bool finished_{false};
    // End of the window in force at the last ECN reduction; further echoes
    // are ignored until snd_una_ passes it (one reduction per RTT).
    std::int64_t ecn_cwr_end_{-1};
    std::uint64_t ecn_responses_{0};

    RttEstimator rtt_;
    sim::EventId rto_event_{0};
    bool rto_armed_{false};

    std::uint64_t segments_sent_{0};
    std::uint64_t retransmits_{0};
    std::uint64_t timeouts_{0};
    std::uint64_t fast_rtx_{0};
    std::uint64_t next_pkt_id_;

    std::function<void()> complete_cb_;
};

}  // namespace bb::tcp

#endif  // BB_TCP_TCP_SENDER_H

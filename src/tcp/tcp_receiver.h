// TCP receiver: reassembles in-order data, emits cumulative ACKs with a
// timestamp echo (used by the sender for RTT estimation).  Supports
// immediate ACKs (default, as the paper's calibration assumes) or classic
// delayed ACKs: every `ack_every` in-order segments, bounded by a timer, and
// immediately on out-of-order data (RFC 1122 / RFC 5681 behaviour — the
// immediate duplicate ACKs are what make fast retransmit work).
#ifndef BB_TCP_TCP_RECEIVER_H
#define BB_TCP_TCP_RECEIVER_H

#include <cstdint>
#include <map>

#include "sim/packet.h"
#include "sim/scheduler.h"

namespace bb::tcp {

class TcpReceiver final : public sim::PacketSink {
public:
    struct Options {
        int ack_every{1};  // 1 = ACK every segment (no delay)
        TimeNs delayed_ack_timeout{milliseconds(200)};
        std::int32_t ack_size_bytes{40};
    };

    // ACKs for `flow` are emitted into `ack_path` (the reverse-direction link).
    TcpReceiver(sim::Scheduler& sched, sim::FlowId flow, sim::PacketSink& ack_path,
                Options opts);
    TcpReceiver(sim::Scheduler& sched, sim::FlowId flow, sim::PacketSink& ack_path)
        : TcpReceiver(sched, flow, ack_path, Options{}) {}
    ~TcpReceiver() override;

    TcpReceiver(const TcpReceiver&) = delete;
    TcpReceiver& operator=(const TcpReceiver&) = delete;

    void accept(const sim::Packet& pkt) override;

    [[nodiscard]] std::int64_t bytes_delivered() const noexcept { return rcv_next_; }
    [[nodiscard]] std::uint64_t segments_received() const noexcept { return segments_; }
    [[nodiscard]] std::uint64_t out_of_order_segments() const noexcept { return ooo_; }
    [[nodiscard]] std::uint64_t acks_sent() const noexcept { return acks_sent_; }
    // CE-marked data segments seen; each is echoed (ecn_echo) on the next ACK.
    [[nodiscard]] std::uint64_t ce_received() const noexcept { return ce_received_; }

private:
    void send_ack(TimeNs echo);
    void arm_delayed_ack(TimeNs echo);
    void disarm_delayed_ack();

    sim::Scheduler* sched_;
    sim::FlowId flow_;
    sim::PacketSink* ack_path_;
    Options opts_;
    std::uint64_t next_ack_id_;  // per-flow id block, like the sender's

    std::int64_t rcv_next_{0};                      // next expected byte
    std::map<std::int64_t, std::int64_t> pending_;  // out-of-order: start -> length
    std::uint64_t segments_{0};
    std::uint64_t ooo_{0};
    std::uint64_t acks_sent_{0};
    std::uint64_t ce_received_{0};
    bool ce_pending_{false};

    int unacked_segments_{0};
    bool delack_armed_{false};
    sim::EventId delack_event_{0};
};

}  // namespace bb::tcp

#endif  // BB_TCP_TCP_RECEIVER_H

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "scenarios/testbed.h"
#include "tcp/rtt_estimator.h"
#include "tcp/tcp_flow.h"
#include "tcp/tcp_receiver.h"
#include "util/rng.h"

namespace bb {
namespace {

using scenarios::Testbed;
using scenarios::TestbedConfig;

TestbedConfig small_testbed() {
    TestbedConfig cfg;
    cfg.bottleneck_rate_bps = 10'000'000;
    cfg.prop_delay = milliseconds(20);
    cfg.buffer_time = milliseconds(50);
    return cfg;
}

TEST(RttEstimator, FirstSampleInitializes) {
    tcp::RttEstimator est;
    est.add_sample(milliseconds(100));
    EXPECT_EQ(est.srtt(), milliseconds(100));
    EXPECT_EQ(est.rttvar(), milliseconds(50));
    // RTO = srtt + 4*rttvar = 300 ms.
    EXPECT_EQ(est.rto(), milliseconds(300));
}

TEST(RttEstimator, ConvergesToStableRtt) {
    tcp::RttEstimator est;
    for (int i = 0; i < 100; ++i) est.add_sample(milliseconds(100));
    EXPECT_EQ(est.srtt(), milliseconds(100));
    // rttvar decays toward zero; RTO floors at min_rto = 200 ms.
    EXPECT_EQ(est.rto(), milliseconds(200));
}

TEST(RttEstimator, BackoffDoublesAndClamps) {
    tcp::RttEstimator est;
    est.add_sample(milliseconds(100));
    const TimeNs before = est.rto();
    est.backoff();
    EXPECT_EQ(est.rto(), before * 2);
    for (int i = 0; i < 20; ++i) est.backoff();
    EXPECT_EQ(est.rto(), seconds_i(60));  // max clamp
}

TEST(RttEstimator, RespectsMinimum) {
    tcp::RttEstimator est;
    for (int i = 0; i < 50; ++i) est.add_sample(milliseconds(1));
    EXPECT_GE(est.rto(), milliseconds(200));
}

TEST(TcpFlow, FiniteTransferCompletes) {
    Testbed tb{small_testbed()};
    tcp::TcpConfig cfg;
    cfg.bytes_to_send = 100 * 1500;
    tcp::TcpFlow flow{tb.sched(), 1,           cfg,
                      tb.forward_in(), tb.reverse_in(), tb.fwd_demux(),
                      tb.rev_demux()};
    bool done = false;
    flow.sender().on_complete([&] { done = true; });
    flow.sender().start(TimeNs::zero());
    tb.sched().run_until(seconds_i(60));
    EXPECT_TRUE(done);
    EXPECT_TRUE(flow.sender().finished());
    EXPECT_EQ(flow.sender().bytes_acked(), cfg.bytes_to_send);
    EXPECT_GE(flow.receiver().bytes_delivered(), cfg.bytes_to_send);
}

TEST(TcpFlow, SlowStartGrowsWindow) {
    Testbed tb{small_testbed()};
    tcp::TcpConfig cfg;  // infinite source
    tcp::TcpFlow flow{tb.sched(), 1,           cfg,
                      tb.forward_in(), tb.reverse_in(), tb.fwd_demux(),
                      tb.rev_demux()};
    flow.sender().start(TimeNs::zero());
    // A couple of RTTs with no loss: cwnd should have grown beyond initial.
    tb.sched().run_until(milliseconds(200));
    EXPECT_GT(flow.sender().cwnd_segments(), 3.0);
}

TEST(TcpFlow, SingleFlowApproachesLinkCapacity) {
    Testbed tb{small_testbed()};
    tcp::TcpConfig cfg;
    tcp::TcpFlow flow{tb.sched(), 1,           cfg,
                      tb.forward_in(), tb.reverse_in(), tb.fwd_demux(),
                      tb.rev_demux()};
    flow.sender().start(TimeNs::zero());
    tb.sched().run_until(seconds_i(30));
    const double goodput_bps =
        static_cast<double>(flow.sender().bytes_acked()) * 8.0 / 30.0;
    // Should achieve a healthy share of the 10 Mb/s link despite AIMD dips.
    EXPECT_GT(goodput_bps, 6e6);
    EXPECT_LE(goodput_bps, 10.5e6);
}

TEST(TcpFlow, RecoversFromLossWithoutTimeoutStorm) {
    Testbed tb{small_testbed()};
    tcp::TcpConfig cfg;
    tcp::TcpFlow flow{tb.sched(), 1,           cfg,
                      tb.forward_in(), tb.reverse_in(), tb.fwd_demux(),
                      tb.rev_demux()};
    flow.sender().start(TimeNs::zero());
    tb.sched().run_until(seconds_i(30));
    // A single flow overfilling a 50 ms buffer must lose packets...
    EXPECT_GT(flow.sender().retransmits(), 0u);
    // ...but fast retransmit should handle nearly all of them.
    EXPECT_GT(flow.sender().fast_retransmits(), 0u);
    EXPECT_LT(flow.sender().timeouts(), flow.sender().fast_retransmits());
}

TEST(TcpFlow, TwoFlowsShareCapacityFairly) {
    Testbed tb{small_testbed()};
    tcp::TcpConfig cfg;
    tcp::TcpFlow f1{tb.sched(), 1,           cfg,
                    tb.forward_in(), tb.reverse_in(), tb.fwd_demux(),
                    tb.rev_demux()};
    tcp::TcpFlow f2{tb.sched(), 2,           cfg,
                    tb.forward_in(), tb.reverse_in(), tb.fwd_demux(),
                    tb.rev_demux()};
    f1.sender().start(TimeNs::zero());
    f2.sender().start(milliseconds(37));
    tb.sched().run_until(seconds_i(60));
    const auto b1 = static_cast<double>(f1.sender().bytes_acked());
    const auto b2 = static_cast<double>(f2.sender().bytes_acked());
    EXPECT_GT(b1, 0.0);
    EXPECT_GT(b2, 0.0);
    const double ratio = b1 > b2 ? b1 / b2 : b2 / b1;
    EXPECT_LT(ratio, 2.5) << "long-run AIMD shares should be comparable";
    // Combined goodput close to capacity.
    EXPECT_GT((b1 + b2) * 8.0 / 60.0, 7e6);
}

TEST(TcpFlow, ReceiverWindowCapsInFlightData) {
    Testbed tb{small_testbed()};
    tcp::TcpConfig cfg;
    cfg.rwnd_segments = 4;  // tiny window: ~6 Mb/s ceiling at 40 ms RTT
    tcp::TcpFlow flow{tb.sched(), 1,           cfg,
                      tb.forward_in(), tb.reverse_in(), tb.fwd_demux(),
                      tb.rev_demux()};
    flow.sender().start(TimeNs::zero());
    tb.sched().run_until(seconds_i(10));
    // 4 segments per ~41 ms RTT = ~1.2 Mb/s; allow generous slack.
    const double goodput_bps = static_cast<double>(flow.sender().bytes_acked()) * 8.0 / 10.0;
    EXPECT_LT(goodput_bps, 2.5e6);
    EXPECT_EQ(flow.sender().retransmits(), 0u) << "window-limited flow should not lose";
}

TEST(TcpReceiver, ReassemblesOutOfOrderSegments) {
    sim::Scheduler sched;
    sim::CountingSink ack_sink;
    tcp::TcpReceiver rx{sched, 5, ack_sink};
    sim::Packet seg;
    seg.flow = 5;
    seg.kind = sim::PacketKind::data;
    seg.size_bytes = 1000;
    seg.seq = 1000;  // second segment arrives first
    rx.accept(seg);
    EXPECT_EQ(rx.bytes_delivered(), 0);
    EXPECT_EQ(rx.out_of_order_segments(), 1u);
    seg.seq = 0;
    rx.accept(seg);
    EXPECT_EQ(rx.bytes_delivered(), 2000);
    EXPECT_EQ(ack_sink.packets(), 2u);
    EXPECT_EQ(ack_sink.last().ack_seq, 2000);
}

TEST(TcpReceiver, DuplicateSegmentsDoNotDoubleCount) {
    sim::Scheduler sched;
    sim::CountingSink ack_sink;
    tcp::TcpReceiver rx{sched, 5, ack_sink};
    sim::Packet seg;
    seg.flow = 5;
    seg.kind = sim::PacketKind::data;
    seg.size_bytes = 1000;
    seg.seq = 0;
    rx.accept(seg);
    rx.accept(seg);  // retransmitted duplicate
    EXPECT_EQ(rx.bytes_delivered(), 1000);
    EXPECT_EQ(ack_sink.last().ack_seq, 1000);
}

// Oracle for the reassembly differential below: TcpReceiver's accept path as
// it was with a std::map out-of-order store.
class MapReceiverOracle final : public sim::PacketSink {
public:
    MapReceiverOracle(sim::Scheduler& sched, sim::FlowId flow, sim::PacketSink& ack_path,
                      tcp::TcpReceiver::Options opts)
        : sched_{&sched}, flow_{flow}, ack_path_{&ack_path}, opts_{opts} {}
    ~MapReceiverOracle() override { disarm(); }

    void accept(const sim::Packet& pkt) override {
        if (pkt.kind != sim::PacketKind::data || pkt.flow != flow_) return;
        if (pkt.ecn_ce) ce_pending_ = true;
        const std::int64_t start = pkt.seq;
        const std::int64_t len = pkt.size_bytes;
        bool in_order = false;
        if (start + len > rcv_next_) {
            if (start > rcv_next_) {
                ++ooo_;
                pending_.emplace(start, len);
            } else {
                rcv_next_ = start + len;
                in_order = true;
            }
            for (auto it = pending_.begin(); it != pending_.end() && it->first <= rcv_next_;) {
                rcv_next_ = std::max(rcv_next_, it->first + it->second);
                it = pending_.erase(it);
            }
        }
        if (!in_order || opts_.ack_every <= 1 || ++unacked_ >= opts_.ack_every) {
            send_ack(pkt.sent_at);
        } else if (!armed_) {
            armed_ = true;
            const TimeNs echo = pkt.sent_at;
            timer_ = sched_->schedule_after(opts_.delayed_ack_timeout, [this, echo] {
                armed_ = false;
                send_ack(echo);
            });
        }
    }
    [[nodiscard]] std::int64_t bytes_delivered() const noexcept { return rcv_next_; }
    [[nodiscard]] std::uint64_t out_of_order_segments() const noexcept { return ooo_; }

private:
    void disarm() {
        if (armed_) sched_->cancel(timer_);
        armed_ = false;
    }
    void send_ack(TimeNs echo) {
        disarm();
        unacked_ = 0;
        sim::Packet ack;
        ack.flow = flow_;
        ack.kind = sim::PacketKind::ack;
        ack.ack_seq = rcv_next_;
        ack.sent_at = sched_->now();
        ack.tstamp_echo = echo;
        ack.ecn_echo = ce_pending_;
        ce_pending_ = false;
        ack_path_->accept(ack);
    }

    sim::Scheduler* sched_;
    sim::FlowId flow_;
    sim::PacketSink* ack_path_;
    tcp::TcpReceiver::Options opts_;
    std::int64_t rcv_next_{0};
    std::map<std::int64_t, std::int64_t> pending_;
    std::uint64_t ooo_{0};
    bool ce_pending_{false};
    int unacked_{0};
    bool armed_{false};
    sim::EventId timer_{0};
};

struct AckLog final : sim::PacketSink {
    struct Ack {
        std::int64_t ack_seq;
        TimeNs sent_at;
        TimeNs echo;
        bool ece;
        bool operator==(const Ack&) const = default;
    };
    std::vector<Ack> acks;
    void accept(const sim::Packet& p) override {
        acks.push_back({p.ack_seq, p.sent_at, p.tstamp_echo, p.ecn_echo});
    }
};

// Randomized differential of the flat reassembly store against the map it
// replaced: permuted arrival orders, duplicates, lost segments that leave
// holes, variable lengths, CE marks, and delayed ACKs on and off.  Both
// receivers see every segment at the same simulated instant; their ACK
// streams (ack number, time, timestamp echo, ECN echo) and tallies must agree
// after every arrival.
TEST(TcpReceiver, FlatReassemblyMatchesMapOracle) {
    Rng rng{0x7C9};
    for (int trial = 0; trial < 60; ++trial) {
        const int n = 1 + static_cast<int>(rng.uniform_int(0, 80));
        std::vector<sim::Packet> segs;
        std::int64_t next = 0;
        for (int i = 0; i < n; ++i) {
            sim::Packet seg;
            seg.flow = 9;
            seg.kind = sim::PacketKind::data;
            seg.seq = next;
            seg.size_bytes = static_cast<std::int32_t>(rng.uniform_int(100, 1500));
            next += seg.size_bytes;
            segs.push_back(seg);
        }
        // Arrival order: each segment delivered 0-3 times (0 = lost for good,
        // on a few trials), then a random permutation of all deliveries.
        std::vector<sim::Packet> arrivals;
        const bool lossy = trial % 4 == 3;
        for (const sim::Packet& seg : segs) {
            const auto copies = rng.uniform_int(lossy ? 0 : 1, 3);
            for (std::int64_t c = 0; c < copies; ++c) arrivals.push_back(seg);
        }
        for (std::size_t i = arrivals.size(); i > 1; --i) {
            const auto j = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
            std::swap(arrivals[i - 1], arrivals[j]);
        }

        tcp::TcpReceiver::Options opts;
        opts.ack_every = trial % 2 == 0 ? 1 : static_cast<int>(rng.uniform_int(2, 4));
        opts.delayed_ack_timeout = milliseconds(rng.uniform_int(5, 200));
        sim::Scheduler sched;
        AckLog flat_acks;
        AckLog oracle_acks;
        tcp::TcpReceiver rx{sched, 9, flat_acks, opts};
        MapReceiverOracle oracle{sched, 9, oracle_acks, opts};
        TimeNs t = TimeNs::zero();
        for (sim::Packet pkt : arrivals) {
            t = t + milliseconds(rng.uniform_int(0, 100));
            sched.run_until(t);
            pkt.sent_at = t - milliseconds(30);
            pkt.ecn_ce = rng.bernoulli(0.1);
            rx.accept(pkt);
            oracle.accept(pkt);
            ASSERT_EQ(rx.bytes_delivered(), oracle.bytes_delivered()) << "trial " << trial;
            ASSERT_EQ(rx.out_of_order_segments(), oracle.out_of_order_segments())
                << "trial " << trial;
            ASSERT_EQ(flat_acks.acks, oracle_acks.acks) << "trial " << trial;
        }
        sched.run();  // pending delayed ACKs fire
        EXPECT_EQ(flat_acks.acks, oracle_acks.acks) << "trial " << trial;
        if (!lossy) {
            EXPECT_EQ(rx.bytes_delivered(), next) << "trial " << trial;
        }
    }
}

}  // namespace
}  // namespace bb

// Odds and ends: edge cases across modules not covered by the focused suites.
#include <gtest/gtest.h>

#include <sstream>

#include "core/trace_io.h"
#include "probes/sting.h"
#include "scenarios/testbed.h"
#include "tcp/tcp_receiver.h"
#include "traffic/cbr.h"
#include "traffic/episodic.h"
#include "util/rng.h"

namespace bb {
namespace {

TEST(CbrEdge, StartAfterStopSendsNothing) {
    sim::Scheduler sched;
    sim::CountingSink sink;
    traffic::CbrSource::Config cfg;
    cfg.start = seconds_i(10);
    cfg.stop = seconds_i(5);
    traffic::CbrSource src{sched, cfg, sink};
    sched.run();
    EXPECT_EQ(src.packets_sent(), 0u);
}

TEST(CbrEdge, ZeroRateRejected) {
    sim::Scheduler sched;
    sim::CountingSink sink;
    traffic::CbrSource::Config cfg;
    cfg.rate_bps = 0;
    EXPECT_THROW((traffic::CbrSource{sched, cfg, sink}), std::invalid_argument);
}

TEST(EpisodicEdge, StopCutsBurstsShort) {
    sim::Scheduler sched;
    sim::CountingSink sink;
    traffic::EpisodicBurstSource::Config cfg;
    cfg.bottleneck_capacity_bytes = 100'000;
    cfg.bottleneck_rate_bps = 10'000'000;
    cfg.mean_gap = milliseconds(100);
    cfg.stop = seconds_i(2);
    traffic::EpisodicBurstSource src{sched, cfg, sink, Rng{1}};
    sched.run();
    EXPECT_GT(src.bursts_started(), 0u);
    EXPECT_LE(sched.now(), seconds_i(3)) << "no events far past stop";
}

TEST(StingEdge, SequenceSpaceContinuesAcrossBursts) {
    scenarios::TestbedConfig tc;
    tc.bottleneck_rate_bps = 10'000'000;
    scenarios::Testbed tb{tc};
    probes::StingProber::Config cfg;
    cfg.burst_segments = 10;
    cfg.burst_interval = milliseconds(500);
    cfg.stop = seconds_i(10);
    probes::StingProber prober{tb.sched(), cfg, tb.forward_in(), Rng{2}};
    tcp::TcpReceiver responder{tb.sched(), cfg.flow, tb.reverse_in()};
    tb.fwd_demux().bind(cfg.flow, responder);
    tb.rev_demux().bind(cfg.flow, prober);
    tb.sched().run_until(seconds_i(12));
    const auto res = prober.result();
    ASSERT_GT(res.bursts_completed, 5u);
    // Responder saw one contiguous byte stream across bursts.
    EXPECT_EQ(responder.bytes_delivered(),
              static_cast<std::int64_t>(res.data_packets) * cfg.segment_bytes);
    EXPECT_EQ(responder.out_of_order_segments(), 0u);
}

TEST(TraceIoFuzz, RandomRoundTripsAreLossless) {
    Rng rng{7};
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<core::ProbeOutcome> probes;
        const auto n = rng.uniform_int(0, 200);
        core::SlotIndex slot = 0;
        for (std::int64_t i = 0; i < n; ++i) {
            core::ProbeOutcome po;
            slot += rng.uniform_int(1, 100);
            po.slot = slot;
            po.send_time = TimeNs{rng.uniform_int(0, 1'000'000'000'000LL)};
            po.packets_sent = static_cast<int>(rng.uniform_int(1, 10));
            po.packets_lost = static_cast<int>(rng.uniform_int(0, po.packets_sent));
            po.max_owd = TimeNs{rng.uniform_int(0, 10'000'000'000LL)};
            po.any_received = po.packets_lost < po.packets_sent;
            probes.push_back(po);
        }
        std::stringstream ss;
        core::write_trace(ss, probes);
        const auto back = core::read_trace(ss);
        ASSERT_EQ(back.size(), probes.size());
        for (std::size_t i = 0; i < probes.size(); ++i) {
            EXPECT_EQ(back[i].slot, probes[i].slot);
            EXPECT_EQ(back[i].send_time, probes[i].send_time);
            EXPECT_EQ(back[i].packets_sent, probes[i].packets_sent);
            EXPECT_EQ(back[i].packets_lost, probes[i].packets_lost);
            EXPECT_EQ(back[i].max_owd, probes[i].max_owd);
            EXPECT_EQ(back[i].any_received, probes[i].any_received);
        }
    }
}

TEST(DemuxEdge, RebindReplacesRoute) {
    sim::FlowDemux demux;
    sim::CountingSink a;
    sim::CountingSink b;
    demux.bind(1, a);
    const std::size_t nodes = demux.table_nodes();
    demux.bind(1, b);  // rebinding replaces
    EXPECT_EQ(demux.table_nodes(), nodes);
    sim::Packet p;
    p.flow = 1;
    demux.accept(p);
    EXPECT_EQ(a.packets(), 0u);
    EXPECT_EQ(b.packets(), 1u);
}

TEST(SchedulerEdge, CancelInsideRunningEvent) {
    sim::Scheduler sched;
    int fired = 0;
    sim::EventId later{};
    later = sched.schedule_at(milliseconds(20), [&] { ++fired; });
    sched.schedule_at(milliseconds(10), [&] { sched.cancel(later); });
    sched.run();
    EXPECT_EQ(fired, 0);
}

TEST(QueueEdge, MixedPacketSizesConserveBytes) {
    sim::Scheduler sched;
    sim::CountingSink sink;
    sim::BottleneckQueue::Config cfg;
    cfg.rate_bps = 8'000'000;
    cfg.prop_delay = milliseconds(1);
    cfg.capacity_bytes = 10'000;
    sim::BottleneckQueue queue{sched, cfg, sink};
    Rng rng{3};
    std::int64_t offered = 0;
    std::int64_t dropped = 0;
    queue.on_drop([&](const sim::QueueEvent& ev) { dropped += ev.pkt.size_bytes; });
    for (int i = 0; i < 2000; ++i) {
        sched.schedule_at(microseconds(i * 50), [&queue, &offered, &rng, i] {
            sim::Packet p;
            p.id = static_cast<std::uint64_t>(i);
            p.size_bytes = static_cast<std::int32_t>(rng.uniform_int(40, 1500));
            offered += p.size_bytes;
            queue.accept(p);
        });
    }
    sched.run();
    EXPECT_EQ(queue.departed_bytes() + dropped, offered);
    EXPECT_EQ(sink.bytes(), queue.departed_bytes());
}

}  // namespace
}  // namespace bb

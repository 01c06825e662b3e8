#include "measure/loss_monitor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "delay_rule_oracle.h"
#include "scenarios/testbed.h"
#include "sim/aqm.h"
#include "sim/queue_base.h"
#include "traffic/cbr.h"

namespace bb::measure {
namespace {

scenarios::TestbedConfig testbed_cfg() {
    scenarios::TestbedConfig cfg;
    cfg.bottleneck_rate_bps = 10'000'000;
    cfg.prop_delay = milliseconds(10);
    cfg.buffer_time = milliseconds(50);
    return cfg;
}

TEST(LossMonitor, NoTrafficNoDrops) {
    scenarios::Testbed tb{testbed_cfg()};
    LossMonitor mon{tb.sched(), tb.bottleneck()};
    tb.sched().run_until(seconds_i(1));
    EXPECT_EQ(mon.drops_total(), 0u);
    EXPECT_DOUBLE_EQ(mon.router_loss_rate(), 0.0);
    EXPECT_TRUE(mon.episodes(milliseconds(100)).empty());
}

TEST(LossMonitor, RouterLossRateMatchesOverload) {
    scenarios::Testbed tb{testbed_cfg()};
    LossMonitor mon{tb.sched(), tb.bottleneck()};
    traffic::CbrSource::Config cbr;
    cbr.rate_bps = 20'000'000;  // 2x: half of the arrivals must be shed
    cbr.stop = seconds_i(10);
    traffic::CbrSource src{tb.sched(), cbr, tb.forward_in()};
    tb.sched().run_until(seconds_i(11));
    EXPECT_NEAR(mon.router_loss_rate(), 0.5, 0.03);
    EXPECT_EQ(mon.drops_total(), mon.cross_traffic_drops());
    EXPECT_EQ(mon.probe_drops(), 0u);
}

TEST(LossMonitor, SeparatesProbeAndCrossTrafficDrops) {
    scenarios::Testbed tb{testbed_cfg()};
    LossMonitor mon{tb.sched(), tb.bottleneck()};
    // Saturate, then inject probe-kind packets that will also be dropped.
    traffic::CbrSource::Config cbr;
    cbr.rate_bps = 30'000'000;
    cbr.stop = seconds_i(5);
    traffic::CbrSource src{tb.sched(), cbr, tb.forward_in()};
    for (int i = 0; i < 200; ++i) {
        tb.sched().schedule_at(milliseconds(1000 + i * 10), [&tb, i] {
            sim::Packet p;
            p.id = 900'000 + static_cast<std::uint64_t>(i);
            p.kind = sim::PacketKind::probe;
            p.size_bytes = 1500;
            tb.forward_in().accept(p);
        });
    }
    tb.sched().run_until(seconds_i(6));
    EXPECT_GT(mon.probe_drops(), 0u);
    EXPECT_GT(mon.cross_traffic_drops(), 0u);
}

TEST(LossMonitor, ProbeDropsExcludableFromTruth) {
    scenarios::Testbed tb{testbed_cfg()};
    LossMonitor::Options opts;
    opts.count_probe_traffic = false;
    LossMonitor mon{tb.sched(), tb.bottleneck(), opts};
    // Only probe packets, at a rate that overflows the queue.
    for (int i = 0; i < 2000; ++i) {
        tb.sched().schedule_at(microseconds(i * 100), [&tb, i] {
            sim::Packet p;
            p.id = static_cast<std::uint64_t>(i);
            p.kind = sim::PacketKind::probe;
            p.size_bytes = 1500;
            tb.forward_in().accept(p);
        });
    }
    tb.sched().run_until(seconds_i(2));
    EXPECT_GT(mon.probe_drops(), 0u);
    EXPECT_TRUE(mon.drop_times().empty()) << "excluded probe drops must not enter truth";
}

TEST(LossMonitor, RouterLossRateCountsDownstreamLossOnce) {
    // Every packet crosses a lossless bottleneck and then dies on a
    // Gilbert-Elliott segment that loses everything: each counts in L only.
    scenarios::TestbedConfig cfg = testbed_cfg();
    cfg.ge_enabled = true;
    cfg.ge.p_good_loss = 1.0;
    cfg.ge.p_bad_loss = 1.0;
    scenarios::Testbed tb{cfg};
    LossMonitor mon{tb.sched(), tb.bottleneck()};
    tb.ge()->on_drop([&mon](const sim::Packet& pkt, TimeNs at) {
        mon.observe_external_drop(at, pkt.kind == sim::PacketKind::probe);
    });
    traffic::CbrSource::Config cbr;
    cbr.rate_bps = 5'000'000;
    cbr.stop = seconds_i(2);
    traffic::CbrSource src{tb.sched(), cbr, tb.forward_in()};
    tb.sched().run_until(seconds_i(3));
    EXPECT_EQ(tb.bottleneck().drops(), 0u);
    EXPECT_GT(tb.ge()->drops(), 0u);
    EXPECT_EQ(tb.ge()->drops(), tb.bottleneck().departures());
    EXPECT_EQ(mon.router_loss_rate(), 1.0);
}

TEST(LossMonitor, RouterLossRateLeavesExcludedProbesOutOfBothTerms) {
    scenarios::Testbed tb{testbed_cfg()};
    LossMonitor::Options opts;
    opts.count_probe_traffic = false;
    LossMonitor mon{tb.sched(), tb.bottleneck(), opts};
    std::uint64_t cross_departures = 0;
    std::uint64_t probe_departures = 0;
    tb.bottleneck().on_dequeue([&](const sim::QueueEvent& ev) {
        ++(ev.pkt.kind == sim::PacketKind::probe ? probe_departures : cross_departures);
    });
    // Cross traffic overloads the queue for 2 s, then it drains: probes
    // sent throughout are dropped early on and depart later.
    traffic::CbrSource::Config cbr;
    cbr.rate_bps = 20'000'000;  // 2x: cross traffic loses about half
    cbr.stop = seconds_i(2);
    traffic::CbrSource src{tb.sched(), cbr, tb.forward_in()};
    for (int i = 0; i < 400; ++i) {
        tb.sched().schedule_at(milliseconds(500 + i * 10), [&tb, i] {
            sim::Packet p;
            p.id = 900'000 + static_cast<std::uint64_t>(i);
            p.kind = sim::PacketKind::probe;
            p.size_bytes = 1500;
            tb.forward_in().accept(p);
        });
    }
    tb.sched().run_until(seconds_i(5));
    ASSERT_GT(probe_departures, 0u);
    ASSERT_GT(mon.probe_drops(), 0u);
    const auto lost = static_cast<double>(mon.cross_traffic_drops());
    EXPECT_EQ(mon.drops_total(), mon.cross_traffic_drops());
    EXPECT_EQ(mon.router_loss_rate(), lost / (lost + static_cast<double>(cross_departures)));
}

// A delay-based run keeps no per-packet state, and its episodes equal the
// batch oracle over a drop and departure log the test records through the
// queue's own hooks.  Each logged delay is the packet's sojourn plus its
// transmission time: dequeue time minus the enqueue time the test's enqueue
// hook saw, where the transmission started no earlier than the enqueue
// (sojourn >= 0) and than the previous departure (one serial link).  Mixed
// packet sizes keep the transmission term visible; the CoDel run sheds heads
// as well as tails.
void expect_delay_rule_matches_oracle_over_hook_log(sim::QueueDiscipline discipline) {
    sim::Scheduler sched;
    sim::CountingSink sink;
    sim::QueueBase::LinkConfig cfg;
    cfg.rate_bps = 8'000'000;  // 1000 B <=> 1 ms
    cfg.prop_delay = milliseconds(1);
    cfg.capacity_bytes = 60'000;
    cfg.discipline = discipline;
    const auto queue = sim::make_queue(sched, cfg, sink);
    const TimeNs gap = milliseconds(10);
    const TimeNs floor = milliseconds(15);
    LossMonitor::Options opts;
    opts.streaming_truth = EpisodeAccumulator::Config{
        .gap = gap, .window_end = seconds_i(1), .delay_floor = floor};
    LossMonitor mon{sched, *queue, opts};

    std::map<std::uint64_t, TimeNs> enqueued;  // by packet id
    std::vector<TimeNs> drops;
    std::vector<DelayedDeparture> log;
    TimeNs last_departure = TimeNs::zero();
    queue->on_enqueue([&](const sim::QueueEvent& ev) { enqueued[ev.pkt.id] = ev.at; });
    queue->on_drop([&](const sim::QueueEvent& ev) { drops.push_back(ev.at); });
    queue->on_dequeue([&](const sim::QueueEvent& ev) {
        const TimeNs tx = transmission_time(ev.pkt.size_bytes, cfg.rate_bps);
        const TimeNs sojourn = ev.at - tx - enqueued.at(ev.pkt.id);
        EXPECT_GE(sojourn, TimeNs::zero());
        EXPECT_GE(ev.at - tx, last_departure);
        last_departure = ev.at;
        EXPECT_EQ(ev.enqueued_at, enqueued.at(ev.pkt.id));
        log.push_back({ev.at, sojourn + tx});
    });
    // Bursts of 80 packets (about 77 ms of link time) every 40 ms build a
    // standing queue that overflows the tail and, under CoDel, outlasts its
    // target long enough to drop heads.
    for (int burst = 0; burst < 20; ++burst) {
        sched.schedule_at(milliseconds(40) * burst, [&queue, burst] {
            for (int i = 0; i < 80; ++i) {
                sim::Packet p;
                p.id = static_cast<std::uint64_t>(burst) * 1000 + static_cast<std::uint64_t>(i);
                p.size_bytes = i % 3 == 0 ? 1500 : 500 + 100 * (i % 5);
                queue->accept(p);
            }
        });
    }
    sched.run();

    EXPECT_GT(queue->drops(), 0u);
    if (discipline == sim::QueueDiscipline::codel) {
        EXPECT_GT(queue->head_drops(), 0u);
    }
    EXPECT_EQ(queue->arrivals(), queue->departures() + queue->drops());
    ASSERT_EQ(log.size(), queue->departures());
    EXPECT_EQ(mon.departures().capacity(), 0u) << "no departure log";

    const auto want = testing::delay_rule_oracle(drops, log, floor, gap);
    const auto got = mon.streaming_truth()->episodes();
    EXPECT_TRUE(testing::same_episodes(got, want))
        << got.size() << " episodes online, " << want.size() << " in the oracle";
    // The floor decides: the rule merges some gap clusters but not all.
    EXPECT_GT(want.size(), 1u);
    EXPECT_LT(want.size(), extract_episodes(drops, gap).size());
}

TEST(LossMonitor, DelayRuleMatchesOracleOverHookLogUnderDropTail) {
    expect_delay_rule_matches_oracle_over_hook_log(sim::QueueDiscipline::drop_tail);
}

TEST(LossMonitor, DelayRuleMatchesOracleOverHookLogUnderCoDelHeadDrops) {
    expect_delay_rule_matches_oracle_over_hook_log(sim::QueueDiscipline::codel);
}

TEST(LossMonitor, DelayRuleCountsDownstreamDrops) {
    // Bottleneck overflow plus Gilbert-Elliott loss behind it: both reach
    // the online rule as drops, in dispatch order.
    scenarios::TestbedConfig cfg = testbed_cfg();
    cfg.ge_enabled = true;
    cfg.ge.p_bad_loss = 0.5;
    cfg.ge.mean_good = milliseconds(300);
    cfg.ge.mean_bad = milliseconds(100);
    scenarios::Testbed tb{cfg};
    const TimeNs gap = milliseconds(20);
    const TimeNs floor = milliseconds(20);
    LossMonitor::Options opts;
    opts.streaming_truth = EpisodeAccumulator::Config{
        .gap = gap, .window_end = seconds_i(6), .delay_floor = floor};
    LossMonitor mon{tb.sched(), tb.bottleneck(), opts};
    std::vector<TimeNs> drops;
    std::vector<DelayedDeparture> log;
    tb.bottleneck().on_drop([&](const sim::QueueEvent& ev) { drops.push_back(ev.at); });
    tb.bottleneck().on_dequeue([&](const sim::QueueEvent& ev) {
        log.push_back({ev.at, ev.at - ev.enqueued_at});
    });
    tb.ge()->on_drop([&](const sim::Packet& pkt, TimeNs at) {
        mon.observe_external_drop(at, pkt.kind == sim::PacketKind::probe);
        drops.push_back(at);
    });
    // A 90% base load plus on/off overload: the queue fills and drains, so
    // some clusters merge and some do not.
    std::vector<std::unique_ptr<traffic::CbrSource>> sources;
    traffic::CbrSource::Config base;
    base.rate_bps = 9'000'000;
    base.stop = seconds_i(5);
    sources.push_back(std::make_unique<traffic::CbrSource>(tb.sched(), base, tb.forward_in()));
    for (int k = 0; k < 5; ++k) {
        traffic::CbrSource::Config burst;
        burst.rate_bps = 6'000'000;
        burst.start = milliseconds(1000 * k + 200);
        burst.stop = milliseconds(1000 * k + 500);
        sources.push_back(
            std::make_unique<traffic::CbrSource>(tb.sched(), burst, tb.forward_in()));
    }
    tb.sched().run_until(seconds_i(6));

    ASSERT_GT(tb.bottleneck().drops(), 0u);
    ASSERT_GT(tb.ge()->drops(), 0u);
    EXPECT_EQ(mon.departures().capacity(), 0u);
    const auto want = testing::delay_rule_oracle(drops, log, floor, gap);
    EXPECT_TRUE(testing::same_episodes(mon.streaming_truth()->episodes(), want));
    EXPECT_GT(want.size(), 1u);
    EXPECT_LT(want.size(), extract_episodes(drops, gap).size());
    EXPECT_EQ(mon.router_loss_rate(),
              static_cast<double>(tb.bottleneck().drops() + tb.ge()->drops()) /
                  static_cast<double>(tb.bottleneck().departures() + tb.bottleneck().drops()));
}

}  // namespace
}  // namespace bb::measure

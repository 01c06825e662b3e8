#include "measure/loss_monitor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

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

TEST(LossMonitor, DeparturesRecordQueueingDelay) {
    scenarios::Testbed tb{testbed_cfg()};
    LossMonitor::Options opts;
    opts.record_departures = true;
    LossMonitor mon{tb.sched(), tb.bottleneck(), opts};
    traffic::CbrSource::Config cbr;
    cbr.rate_bps = 9'000'000;  // 90% load: visible queueing, no loss
    cbr.stop = seconds_i(3);
    traffic::CbrSource src{tb.sched(), cbr, tb.forward_in()};
    tb.sched().run_until(seconds_i(4));
    ASSERT_FALSE(mon.departures().empty());
    for (const auto& d : mon.departures()) {
        EXPECT_GE(d.queueing_delay, TimeNs::zero());
        EXPECT_LE(d.queueing_delay, milliseconds(51));
    }
}

// Each logged departure delay is the packet's sojourn plus its transmission
// time: dequeue time minus the enqueue time the test records through the
// queue's own enqueue hook, where the transmission started no earlier than
// the enqueue (sojourn >= 0) and than the previous departure (one serial
// link).  Mixed packet sizes keep the transmission term visible; the CoDel
// run sheds heads as well as tails.
void expect_departure_delays_are_sojourn_plus_transmission(sim::QueueDiscipline discipline) {
    sim::Scheduler sched;
    sim::CountingSink sink;
    sim::QueueBase::LinkConfig cfg;
    cfg.rate_bps = 8'000'000;  // 1000 B <=> 1 ms
    cfg.prop_delay = milliseconds(1);
    cfg.capacity_bytes = 60'000;
    cfg.discipline = discipline;
    const auto queue = sim::make_queue(sched, cfg, sink);
    LossMonitor::Options opts;
    opts.record_departures = true;
    LossMonitor mon{sched, *queue, opts};

    std::map<std::uint64_t, TimeNs> enqueued;  // by packet id
    std::vector<TimeNs> want;                  // per departure, in order
    TimeNs last_departure = TimeNs::zero();
    queue->on_enqueue([&](const sim::QueueEvent& ev) { enqueued[ev.pkt.id] = ev.at; });
    queue->on_dequeue([&](const sim::QueueEvent& ev) {
        const TimeNs tx = transmission_time(ev.pkt.size_bytes, cfg.rate_bps);
        const TimeNs sojourn = ev.at - tx - enqueued.at(ev.pkt.id);
        EXPECT_GE(sojourn, TimeNs::zero());
        EXPECT_GE(ev.at - tx, last_departure);
        last_departure = ev.at;
        EXPECT_EQ(ev.enqueued_at, enqueued.at(ev.pkt.id));
        want.push_back(sojourn + tx);
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
    ASSERT_EQ(mon.departures().size(), queue->departures());
    ASSERT_EQ(want.size(), mon.departures().size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(mon.departures()[i].queueing_delay, want[i]) << "departure " << i;
    }
}

TEST(LossMonitor, DepartureDelaysAreSojournPlusTransmissionUnderDropTail) {
    expect_departure_delays_are_sojourn_plus_transmission(sim::QueueDiscipline::drop_tail);
}

TEST(LossMonitor, DepartureDelaysAreSojournPlusTransmissionUnderCoDelHeadDrops) {
    expect_departure_delays_are_sojourn_plus_transmission(sim::QueueDiscipline::codel);
}

TEST(QueueSampler, SamplesAtConfiguredCadence) {
    scenarios::Testbed tb{testbed_cfg()};
    QueueSampler sampler{tb.sched(), tb.bottleneck(), milliseconds(10), seconds_i(1)};
    tb.sched().run_until(seconds_i(2));
    // 1 s of samples at 10 ms.
    EXPECT_NEAR(static_cast<double>(sampler.series().size()), 100.0, 2.0);
    for (const auto& pt : sampler.series().points()) {
        EXPECT_GE(pt.value, 0.0);
    }
}

TEST(QueueSampler, StopsAtHorizon) {
    scenarios::Testbed tb{testbed_cfg()};
    QueueSampler sampler{tb.sched(), tb.bottleneck(), milliseconds(10), milliseconds(100)};
    tb.sched().run_until(seconds_i(5));
    EXPECT_LE(sampler.series().size(), 11u);
}

}  // namespace
}  // namespace bb::measure

// Packet reflection and the one-way-vs-RTT marking distinction.
#include <gtest/gtest.h>

#include <memory>

#include "measure/loss_monitor.h"
#include "probes/badabing.h"
#include "scenarios/experiment.h"
#include "sim/router.h"
#include "traffic/cbr.h"
#include "traffic/episodic.h"

namespace bb {
namespace {

TEST(Reflector, SwapsAddressesAndPreservesTimestamp) {
    sim::CountingSink sink;
    sim::Reflector reflector{sink};
    sim::Packet p;
    p.src_addr = 1;
    p.dst_addr = 2;
    p.sent_at = milliseconds(123);
    reflector.accept(p);
    EXPECT_EQ(reflector.reflected(), 1u);
    EXPECT_EQ(sink.last().src_addr, 2u);
    EXPECT_EQ(sink.last().dst_addr, 1u);
    EXPECT_EQ(sink.last().sent_at, milliseconds(123));
}

// One BADABING tool on a two-queue path.  It receives either at the far end
// of the forward queue (one-way, as BADABING does) or back at the sender
// through a Reflector and the reverse queue (RTT, ping-style).
struct ReflectedPath {
    std::int64_t rate_bps{10'000'000};
    TimeNs prop_delay{milliseconds(20)};
    std::int64_t reverse_cbr_bps{0};  // load on the reverse queue only
    bool forward_episodes{false};     // engineered loss episodes, forward queue only
    double p{0.4};
    TimeNs tau{milliseconds(20)};
    std::uint64_t seed{5};
};

struct PathResult {
    double true_freq;
    double est_freq;
};

PathResult run_path(const ReflectedPath& cfg, bool rtt) {
    const TimeNs horizon = seconds_i(120);
    sim::Scheduler sched;
    sim::FlowDemux fwd_demux;
    sim::FlowDemux rev_demux;
    sim::CountingSink blackhole;
    fwd_demux.set_default(blackhole);
    rev_demux.set_default(blackhole);

    sim::QueueBase::LinkConfig link;
    link.rate_bps = cfg.rate_bps;
    link.prop_delay = cfg.prop_delay;
    link.capacity_time = milliseconds(100);
    sim::BottleneckQueue fwd_queue{sched, link, fwd_demux};
    sim::BottleneckQueue rev_queue{sched, link, rev_demux};
    measure::LossMonitor monitor{sched, fwd_queue};

    std::unique_ptr<traffic::EpisodicBurstSource> bursts;
    if (cfg.forward_episodes) {
        traffic::EpisodicBurstSource::Config burst;
        burst.bottleneck_rate_bps = link.rate_bps;
        burst.bottleneck_capacity_bytes = fwd_queue.capacity_bytes();
        burst.background_load = 0.0;
        burst.stop = horizon;
        bursts = std::make_unique<traffic::EpisodicBurstSource>(sched, burst, fwd_queue,
                                                                Rng{cfg.seed ^ 0xF});
    }
    std::unique_ptr<traffic::CbrSource> rev_load;
    if (cfg.reverse_cbr_bps > 0) {
        traffic::CbrSource::Config cbr;
        cbr.rate_bps = cfg.reverse_cbr_bps;
        cbr.flow = 99;
        cbr.stop = horizon;
        rev_load = std::make_unique<traffic::CbrSource>(sched, cbr, rev_queue);
    }

    probes::BadabingConfig bc;
    bc.p = cfg.p;
    bc.total_slots = horizon / bc.slot_width;
    probes::BadabingTool tool{sched, bc, fwd_queue, Rng{cfg.seed}};
    sim::Reflector reflector{rev_queue};
    if (rtt) {
        fwd_demux.bind(bc.flow, reflector);
        rev_demux.bind(bc.flow, tool);
    } else {
        fwd_demux.bind(bc.flow, tool);
    }
    sched.run_until(horizon + seconds_i(4));

    core::MarkingConfig marking;
    marking.tau = cfg.tau;
    marking.alpha = 0.1;
    const auto truth = measure::summarize_truth(monitor.episodes(milliseconds(100)),
                                                bc.slot_width, TimeNs::zero(), horizon);
    return {truth.frequency, tool.analyze(marking).frequency.value};
}

TEST(Reflector, RttMarkingSeesPhantomCongestionFromReversePath) {
    // Forward path idle; reverse path congested.  A one-way tool must report
    // zero loss frequency; an RTT (reflected) tool reports phantom
    // congestion -- the reason BADABING measures one-way delay.
    const ReflectedPath path{.reverse_cbr_bps = 12'000'000};
    const double one_way = run_path(path, false).est_freq;
    const double rtt = run_path(path, true).est_freq;
    EXPECT_DOUBLE_EQ(one_way, 0.0) << "forward path is idle";
    EXPECT_GT(rtt, 0.05) << "reflected probes absorb the reverse congestion";
}

TEST(Reflector, OneWayMarkingIgnoresReverseLoadDuringForwardEpisodes) {
    // The §1/§6.1 design argument on the paper's scaled path (30 Mb/s, 50 ms):
    // engineered loss episodes (68 ms, every ~10 s) on the forward queue, and
    // the reverse queue idle or 97% loaded by CBR.  The one-way estimate is
    // the same either way; the RTT estimate marks the reverse queueing as
    // congestion and exceeds the true frequency more than tenfold.
    // Measured: truth 0.0071, one-way 0.0083 both times, RTT 0.58.
    ReflectedPath path{.rate_bps = 30'000'000,
                       .prop_delay = milliseconds(50),
                       .forward_episodes = true,
                       .p = 0.3,
                       .tau = scenarios::tau_for_probe_rate(0.3, milliseconds(5)),
                       .seed = 7};
    const auto quiet = run_path(path, false);
    path.reverse_cbr_bps = 29'100'000;
    const auto loaded = run_path(path, false);
    const auto rtt = run_path(path, true);
    ASSERT_GT(quiet.true_freq, 0.0);
    EXPECT_DOUBLE_EQ(loaded.est_freq, quiet.est_freq);
    EXPECT_GT(rtt.est_freq, 10.0 * rtt.true_freq);
}

}  // namespace
}  // namespace bb

#include "probes/badabing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/probe_process.h"
#include "measure/loss_monitor.h"
#include "scenarios/experiment.h"
#include "scenarios/testbed.h"
#include "traffic/cbr.h"

namespace bb {
namespace {

using scenarios::Testbed;
using scenarios::TestbedConfig;

TestbedConfig testbed_cfg() {
    TestbedConfig cfg;
    cfg.bottleneck_rate_bps = 10'000'000;
    cfg.prop_delay = milliseconds(20);
    cfg.buffer_time = milliseconds(100);
    return cfg;
}

probes::BadabingConfig tool_cfg(double p, TimeNs duration) {
    probes::BadabingConfig cfg;
    cfg.p = p;
    cfg.total_slots = duration / cfg.slot_width;
    return cfg;
}

TEST(Badabing, QuietPathReportsZeroFrequency) {
    Testbed tb{testbed_cfg()};
    const auto cfg = tool_cfg(0.3, seconds_i(30));
    probes::BadabingTool tool{tb.sched(), cfg, tb.forward_in(), Rng{1}};
    tb.fwd_demux().bind(cfg.flow, tool);
    tb.sched().run_until(seconds_i(31));

    const auto res = tool.analyze(core::MarkingConfig{});
    EXPECT_DOUBLE_EQ(res.frequency.value, 0.0);
    EXPECT_FALSE(res.duration_basic.valid);
    EXPECT_EQ(res.packets_lost, 0u);
    EXPECT_GT(res.probes_sent, 0u);
}

TEST(Badabing, ProbeCountMatchesDesign) {
    Testbed tb{testbed_cfg()};
    const auto cfg = tool_cfg(0.5, seconds_i(20));
    probes::BadabingTool tool{tb.sched(), cfg, tb.forward_in(), Rng{2}};
    tb.fwd_demux().bind(cfg.flow, tool);
    tb.sched().run_until(seconds_i(21));
    const auto res = tool.analyze(core::MarkingConfig{});
    EXPECT_EQ(res.probes_sent, tool.design().probe_slots.size());
    EXPECT_EQ(res.packets_sent, res.probes_sent * 3);
    EXPECT_EQ(res.experiments, tool.design().experiments.size());
}

TEST(Badabing, DetectsEngineeredEpisodes) {
    scenarios::WorkloadConfig wl;
    wl.kind = scenarios::TrafficKind::cbr_uniform;
    wl.duration = seconds_i(120);
    wl.seed = 11;
    wl.mean_episode_gap = seconds_i(5);
    scenarios::Experiment exp{testbed_cfg(), wl};

    auto& tool = exp.add_badabing(tool_cfg(0.5, wl.duration));
    exp.run();

    const auto truth = exp.truth();
    ASSERT_GT(truth.episodes, 5u);

    const auto res = tool.analyze(exp.default_marking(0.5));
    EXPECT_GT(res.frequency.value, 0.0);
    // Within a factor of ~2.5 of truth even on this short run.
    EXPECT_NEAR(res.frequency.value, truth.frequency, 1.5 * truth.frequency);
    ASSERT_TRUE(res.duration_basic.valid);
    const double est_dur = res.duration_basic.seconds(milliseconds(5));
    EXPECT_NEAR(est_dur, truth.mean_duration_s, 1.5 * truth.mean_duration_s + 0.01);
}

TEST(Badabing, OfferedLoadIsSmallFractionOfLink) {
    Testbed tb{testbed_cfg()};
    const auto cfg = tool_cfg(0.3, seconds_i(30));
    probes::BadabingTool tool{tb.sched(), cfg, tb.forward_in(), Rng{3}};
    tb.fwd_demux().bind(cfg.flow, tool);
    tb.sched().run_until(seconds_i(31));
    // p = 0.3: ~0.6 probes/slot * 3 pkts * 600 B / 5 ms = ~1.7 Mb/s on 10 Mb/s.
    const double frac = tool.offered_load_fraction(tb.config().bottleneck_rate_bps);
    EXPECT_GT(frac, 0.05);
    EXPECT_LT(frac, 0.30);
}

TEST(Badabing, ClockOffsetDoesNotChangeEstimates) {
    const auto run = [&](TimeNs offset) {
        scenarios::WorkloadConfig wl;
        wl.kind = scenarios::TrafficKind::cbr_uniform;
        wl.duration = seconds_i(90);
        wl.seed = 21;
        wl.mean_episode_gap = seconds_i(5);
        scenarios::Experiment exp{testbed_cfg(), wl};
        auto cfg = tool_cfg(0.5, wl.duration);
        cfg.receiver_clock_offset = offset;
        auto& tool = exp.add_badabing(cfg);
        exp.run();
        return tool.analyze(exp.default_marking(0.5));
    };
    const auto a = run(TimeNs::zero());
    const auto b = run(seconds_i(7));  // constant 7 s receiver clock offset
    EXPECT_DOUBLE_EQ(a.frequency.value, b.frequency.value);
    EXPECT_DOUBLE_EQ(a.duration_basic.slots, b.duration_basic.slots);
}

TEST(Badabing, ImprovedDesignProducesExtendedCounts) {
    scenarios::WorkloadConfig wl;
    wl.kind = scenarios::TrafficKind::cbr_uniform;
    wl.duration = seconds_i(120);
    wl.seed = 31;
    wl.mean_episode_gap = seconds_i(5);
    scenarios::Experiment exp{testbed_cfg(), wl};
    auto cfg = tool_cfg(0.5, wl.duration);
    cfg.improved = true;
    auto& tool = exp.add_badabing(cfg);
    exp.run();
    const auto res = tool.analyze(exp.default_marking(0.5));
    EXPECT_GT(res.counts.extended_total(), 0u);
    EXPECT_TRUE(res.duration_improved.valid);
}

TEST(FixedIntervalProber, EmitsOnSchedule) {
    Testbed tb{testbed_cfg()};
    probes::FixedIntervalProber::Config cfg;
    cfg.interval = milliseconds(10);
    cfg.packets_per_probe = 2;
    cfg.stop = seconds_i(1);
    probes::FixedIntervalProber prober{tb.sched(), cfg, tb.forward_in()};
    tb.fwd_demux().bind(cfg.flow, prober);
    tb.sched().run_until(seconds_i(2));
    const auto out = prober.outcomes();
    EXPECT_NEAR(static_cast<double>(out.size()), 100.0, 2.0);
    for (const auto& po : out) {
        EXPECT_EQ(po.packets_sent, 2);
        EXPECT_EQ(po.packets_lost, 0);
        EXPECT_TRUE(po.any_received);
        // OWD = prop delay + transmission; roughly 20 ms here.
        EXPECT_GT(po.max_owd, milliseconds(19));
        EXPECT_LT(po.max_owd, milliseconds(25));
    }
}

TEST(FixedIntervalProber, TrailingPacketsLeaveGapApartStampedWhenTheyLeave) {
    sim::Scheduler sched;
    struct Log final : sim::PacketSink {
        sim::Scheduler* sched;
        std::vector<sim::Packet> got;
        std::vector<TimeNs> at;
        void accept(const sim::Packet& p) override {
            got.push_back(p);
            at.push_back(sched->now());
        }
    } log;
    log.sched = &sched;
    probes::FixedIntervalProber::Config cfg;
    cfg.interval = milliseconds(1);
    cfg.packets_per_probe = 4;
    cfg.intra_probe_gap = microseconds(200);
    cfg.stop = microseconds(2500);
    probes::FixedIntervalProber prober{sched, cfg, log};
    sched.run();
    ASSERT_EQ(log.got.size(), 12u);  // probes at 0, 1 and 2 ms
    for (std::size_t i = 0; i < log.got.size(); ++i) {
        const auto probe = static_cast<std::int64_t>(i / 4);
        const auto k = static_cast<std::int32_t>(i % 4);
        EXPECT_EQ(log.got[i].seq, probe);
        EXPECT_EQ(log.got[i].probe_pkt, k);
        EXPECT_EQ(log.at[i], milliseconds(probe) + microseconds(200) * k);
        EXPECT_EQ(log.got[i].sent_at, log.at[i]);
        if (i > 0) {
            EXPECT_EQ(log.got[i].id, log.got[i - 1].id + 1);
        }
    }
    EXPECT_EQ(sched.packet_pool().capacity(), 0u);
}

// A train that reaches the next probe would push its lane out of time order;
// every prober rejects it up front.
TEST(ProbeTrain, TrainReachingTheProbeSpacingIsRejected) {
    sim::Scheduler sched;
    sim::CountingSink out;
    probes::BadabingConfig bc;
    bc.total_slots = 100;
    bc.packets_per_probe = 3;
    bc.intra_probe_gap = microseconds(2500);  // 2 x 2.5 ms == the 5 ms slot
    EXPECT_THROW((probes::BadabingTool{sched, bc, out, Rng{1}}), std::invalid_argument);
    bc.intra_probe_gap = microseconds(2499);
    EXPECT_NO_THROW((probes::BadabingTool{sched, bc, out, Rng{1}}));

    probes::FixedIntervalProber::Config fc;
    fc.interval = milliseconds(1);
    fc.packets_per_probe = 11;
    fc.intra_probe_gap = microseconds(100);  // 10 x 100 us == the interval
    EXPECT_THROW((probes::FixedIntervalProber{sched, fc, out}), std::invalid_argument);
    fc.packets_per_probe = 10;
    EXPECT_NO_THROW((probes::FixedIntervalProber{sched, fc, out}));
}

// A path that loses or delays each probe packet at random, so marking sees
// both rules fire.
class RandomPath final : public sim::PacketSink {
public:
    RandomPath(sim::Scheduler& sched, Rng rng) : sched_{&sched}, rng_{std::move(rng)} {}
    void connect(sim::PacketSink& far) { far_ = &far; }
    void accept(const sim::Packet& pkt) override {
        if (rng_.bernoulli(0.04)) return;
        const TimeNs delay = microseconds(rng_.uniform_int(10'000, 60'000));
        sched_->schedule_after(delay, [this, pkt] { far_->accept(pkt); });
    }

private:
    sim::Scheduler* sched_;
    Rng rng_;
    sim::PacketSink* far_{nullptr};
};

// The forward merge in emit_reports against the per-query lower_bound search
// it replaced, on random basic and improved designs.
TEST(Badabing, EmitReportsMatchesLowerBoundOracle) {
    Rng draw{2026};
    for (int trial = 0; trial < 24; ++trial) {
        probes::BadabingConfig cfg;
        cfg.p = 0.05 + 0.85 * draw.uniform01();
        cfg.improved = trial % 2 == 1;
        cfg.extended_fraction = draw.uniform01();
        cfg.total_slots = 500 + draw.uniform_int(0, 1500);
        sim::Scheduler sched;
        RandomPath path{sched, Rng{draw.next_u64()}};
        probes::BadabingTool tool{sched, cfg, path, Rng{draw.next_u64()}};
        path.connect(tool);
        sched.run();

        core::MarkingConfig marking;
        marking.tau = milliseconds(draw.uniform_int(0, 20));
        marking.alpha = 0.05 + 0.3 * draw.uniform01();

        core::VectorSink<core::ExperimentResult> merged;
        tool.emit_reports(marking, merged);

        core::CongestionMarker marker{marking};
        const std::vector<core::SlotMark> marks = marker.mark(tool.outcomes());
        const auto oracle = core::score_experiments(
            tool.design().experiments, [&marks](core::SlotIndex s) {
                const auto it = std::lower_bound(
                    marks.begin(), marks.end(), s,
                    [](const core::SlotMark& m, core::SlotIndex key) { return m.slot < key; });
                return it != marks.end() && it->slot == s && it->congested;
            });

        const std::vector<core::ExperimentResult> got = merged.take();
        ASSERT_EQ(got.size(), oracle.size()) << "trial " << trial;
        std::size_t congested_reports = 0;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].kind, oracle[i].kind) << "trial " << trial << " report " << i;
            EXPECT_EQ(got[i].code, oracle[i].code) << "trial " << trial << " report " << i;
            if (got[i].code != 0) ++congested_reports;
        }
        // The path must exercise both outcomes for the comparison to bite.
        EXPECT_GT(congested_reports, 0u) << "trial " << trial;
        EXPECT_LT(congested_reports, got.size()) << "trial " << trial;
    }
}

// The probe schedule is one grid lane over the design's slots, and the
// tool's probe train a packet lane: destroying the tool mid-run drops both
// lanes' pending entries from the scheduler's books, exactly.
TEST(Badabing, DestroyedMidRunLeavesExactAccounting) {
    sim::Scheduler sched;
    sim::CountingSink out;
    probes::BadabingConfig cfg;
    cfg.p = 0.5;
    cfg.total_slots = 400;
    auto tool = std::make_unique<probes::BadabingTool>(sched, cfg, out, Rng{3});
    const std::size_t probes = tool->design().probe_slots.size();
    ASSERT_GT(probes, 100u);
    sched.schedule_at(seconds_i(10), [] {});
    EXPECT_EQ(sched.live_events(), probes + 1);
    EXPECT_EQ(sched.arena_slots(), 1u);  // the probes take no arena slot

    sched.run_until(milliseconds(1000));
    const std::uint64_t sent = tool->probes_sent();
    ASSERT_GT(sent, 0u);
    ASSERT_LT(sent, probes);
    sched.check_invariants();
    tool.reset();
    EXPECT_EQ(sched.live_events(), 1u);
    EXPECT_EQ(sched.pending_events(), 1u);
    sched.check_invariants();
    const std::uint64_t executed = sched.executed_events();
    sched.run();
    EXPECT_EQ(sched.executed_events(), executed + 1);
    EXPECT_EQ(sched.live_events(), 0u);
}

// A window too short for any experiment draws an empty design; its probe
// schedule then takes no event and no insertion sequence.
TEST(Badabing, EmptyDesignRegistersNothing) {
    sim::Scheduler sched;
    sim::CountingSink out;
    probes::BadabingConfig cfg;
    cfg.p = 1.0;
    cfg.total_slots = 1;
    probes::BadabingTool tool{sched, cfg, out, Rng{4}};
    EXPECT_TRUE(tool.design().probe_slots.empty());
    EXPECT_EQ(sched.live_events(), 0u);
    EXPECT_EQ(sched.pending_events(), 0u);
    sched.check_invariants();
    sched.run();
    EXPECT_EQ(sched.executed_events(), 0u);
    EXPECT_EQ(tool.probes_sent(), 0u);
}

}  // namespace
}  // namespace bb

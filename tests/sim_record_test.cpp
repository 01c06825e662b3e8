#include "scenarios/sim_record.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/control.h"
#include "obs/metrics.h"
#include "scenarios/progress.h"
#include "scenarios/replica_runner.h"
#include "util/json.h"

namespace bb::scenarios {
namespace {

class ObsOn {
public:
    ObsOn() { obs::set_enabled(true); }
    ~ObsOn() { obs::set_enabled(true); }
};

WorkloadConfig short_cbr() {
    WorkloadConfig wl;
    wl.kind = TrafficKind::cbr_uniform;
    wl.duration = seconds_i(8);
    wl.seed = 7;
    wl.episode_duration = milliseconds(68);
    wl.mean_episode_gap = seconds_i(2);
    return wl;
}

ReplicaPlan short_plan(bool recording) {
    ReplicaPlan plan;
    plan.spec.workload = short_cbr();
    plan.spec.badabing.p = 0.3;
    plan.spec.badabing.total_slots = 0;
    plan.recording.enabled = recording;
    plan.recording.interval = milliseconds(50);
    return plan;
}

ReplicaRunner::Config runner_config(std::size_t replicas, std::size_t threads) {
    ReplicaRunner::Config cfg;
    cfg.replicas = replicas;
    cfg.threads = threads;
    cfg.master_seed = 7;
    return cfg;
}

// The figure programs' equivalence: the recorder's sim.queue.delay_s gauge
// equals, pointwise, an event that reschedules itself every interval and
// reads the bottleneck's queueing delay, when the bin budget never forces a
// merge (each sample lands in its own bin and `last` is the sample).
TEST(ExperimentRecorder, DelayGaugeMatchesRescheduledQueueReadsPointwise) {
    ObsOn guard;
    WorkloadConfig wl = short_cbr();
    TruthConfig tc;
    Experiment exp{TestbedConfig{}, wl, tc};

    const TimeNs interval = milliseconds(5);
    struct Read {
        double t;
        double delay;
    };
    std::vector<Read> reads;
    sim::Scheduler& sched = exp.testbed().sched();
    const sim::QueueBase& queue = exp.testbed().bottleneck();
    std::function<void()> read_queue = [&] {
        reads.push_back({sched.now().to_seconds(), queue.queueing_delay().to_seconds()});
        if (sched.now() + interval <= wl.duration) {
            sched.schedule_after(interval, [&read_queue] { read_queue(); });
        }
    };
    sched.schedule_after(interval, [&read_queue] { read_queue(); });

    SimRecordingConfig rc;
    rc.enabled = true;
    rc.interval = interval;
    rc.budget_bins = 4096;  // 8 s / 5 ms = 1600 samples: never merges
    ExperimentRecorder recording{exp, rc};
    exp.run();
    recording.finish();

    const obs::TimeSeries* ts = recording.recorder().find("sim.queue.delay_s");
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->merges(), 0u);

    ASSERT_EQ(reads.size(), 1600u);
    std::size_t k = 0;
    for (std::size_t i = 0; i < ts->bins().size() && k < reads.size(); ++i) {
        const auto& bin = ts->bins()[i];
        if (bin.count == 0) continue;
        const double t =
            static_cast<double>(static_cast<std::int64_t>(i) * ts->bin_width_ns()) * 1e-9;
        EXPECT_DOUBLE_EQ(t, reads[k].t) << "sample " << k;
        EXPECT_DOUBLE_EQ(bin.last, reads[k].delay) << "sample " << k;
        ++k;
    }
    // Every read matched a recorder bin; the recorder holds one more, the
    // tail sample finish() takes at the post-drain clock.
    EXPECT_EQ(k, reads.size());
    EXPECT_EQ(ts->samples(), reads.size() + 1);
}

// The cadence: one sample per interval from t = interval to the workload's
// duration, each in its own bin while the budget holds.
TEST(ExperimentRecorder, SamplesAtConfiguredCadence) {
    ObsOn guard;
    WorkloadConfig wl = short_cbr();
    wl.duration = seconds_i(1);
    Experiment exp{TestbedConfig{}, wl, TruthConfig{}};
    SimRecordingConfig rc;
    rc.enabled = true;
    rc.interval = milliseconds(10);
    rc.budget_bins = 4096;
    ExperimentRecorder recording{exp, rc};
    exp.run();  // before finish(): no tail sample yet

    const obs::TimeSeries* ts = recording.recorder().find("sim.queue.delay_s");
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->bin_width_ns(), milliseconds(10).ns());
    EXPECT_EQ(ts->samples(), 100u);
    ASSERT_EQ(ts->bins().size(), 101u);
    EXPECT_EQ(ts->bins()[0].count, 0u);
    for (std::size_t i = 1; i < ts->bins().size(); ++i) {
        EXPECT_EQ(ts->bins()[i].count, 1u) << "bin " << i;
        EXPECT_GE(ts->bins()[i].last, 0.0) << "bin " << i;
    }
}

// A recorder with a horizon samples that window only: its last bin is the
// horizon's, and finish() adds no tail sample after the run.
TEST(ExperimentRecorder, WindowStopsAtHorizonWithNoTailBin) {
    ObsOn guard;
    WorkloadConfig wl = short_cbr();
    Experiment exp{TestbedConfig{}, wl, TruthConfig{}};
    SimRecordingConfig rc;
    rc.enabled = true;
    rc.interval = milliseconds(10);
    rc.horizon = milliseconds(100);
    rc.budget_bins = 4096;
    ExperimentRecorder recording{exp, rc};
    exp.run();
    recording.finish();

    const obs::Recorder& rec = recording.recorder();
    EXPECT_EQ(rec.samples(), 10u);
    for (const char* name : {"sim.queue.delay_s", "sim.queue.drops", "sched.executed"}) {
        const obs::TimeSeries* ts = rec.find(name);
        ASSERT_NE(ts, nullptr) << name;
        EXPECT_EQ(ts->samples(), 10u) << name;
        ASSERT_EQ(ts->bins().size(), 11u) << name;
        EXPECT_EQ(ts->bins().back().count, 1u) << name;
    }
    // The episode annotations still come from the whole run.
    EXPECT_EQ(rec.annotations().size(), 2 * exp.truth().episodes);
}

TEST(ExperimentRecorder, SeriesBitIdenticalAcrossThreadCounts) {
    ObsOn guard;
    const ReplicaPlan plan = short_plan(true);
    std::vector<std::string> docs;
    for (const std::size_t threads : {1u, 4u, 8u}) {
        const ReplicaRunner runner{runner_config(4, threads)};
        const auto results = runner.run(plan);
        ASSERT_EQ(results.size(), 4u);
        ASSERT_NE(results[0].series, nullptr) << threads << " threads";
        // Only replica 0 records.
        EXPECT_EQ(results[1].series, nullptr);
        EXPECT_EQ(results[3].series, nullptr);
        EXPECT_GT(results[0].series->samples(), 0u);
        docs.push_back(results[0].series->json("cell0"));
    }
    EXPECT_EQ(docs[0], docs[1]);
    EXPECT_EQ(docs[0], docs[2]);
}

TEST(ExperimentRecorder, RecordingDoesNotChangeEstimates) {
    ObsOn guard;
    const ReplicaRunner runner{runner_config(3, 2)};
    const auto off = runner.run(short_plan(false));
    const auto on = runner.run(short_plan(true));
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(off[i].series, nullptr);
        EXPECT_EQ(off[i].truth.frequency, on[i].truth.frequency);
        EXPECT_EQ(off[i].truth.mean_duration_s, on[i].truth.mean_duration_s);
        EXPECT_EQ(off[i].result.frequency.value, on[i].result.frequency.value);
        EXPECT_EQ(off[i].result.probes_sent, on[i].result.probes_sent);
        EXPECT_EQ(off[i].queue_drops, on[i].queue_drops);
        EXPECT_EQ(off[i].path_loss_rate, on[i].path_loss_rate);
    }
    const auto agg_off = runner.aggregate(short_plan(false), off);
    const auto agg_on = runner.aggregate(short_plan(true), on);
    EXPECT_EQ(agg_off.stat("est_frequency")->mean, agg_on.stat("est_frequency")->mean);
    EXPECT_EQ(agg_off.stat("est_frequency")->ci.lo, agg_on.stat("est_frequency")->ci.lo);
}

TEST(ExperimentRecorder, RecordsStandardProbeSetAndEpisodeAnnotations) {
    ObsOn guard;
    WorkloadConfig wl = short_cbr();
    TruthConfig tc;
    Experiment exp{TestbedConfig{}, wl, tc};
    probes::BadabingConfig bc;
    bc.p = 0.3;
    bc.total_slots = 0;
    exp.add_badabing(bc);

    SimRecordingConfig rc;
    rc.enabled = true;
    rc.interval = milliseconds(50);
    ExperimentRecorder recording{exp, rc};
    exp.run();
    recording.finish();

    obs::Recorder& rec = recording.recorder();
    for (const char* name :
         {"sim.queue.delay_s", "sim.queue.bytes", "sim.queue.drops", "sched.executed",
          "probes.badabing.probes_sent", "probes.badabing.packets_received"}) {
        const obs::TimeSeries* ts = rec.find(name);
        ASSERT_NE(ts, nullptr) << name;
        EXPECT_GT(ts->samples(), 0u) << name;
    }
    // The probe-tally counters must account for the tool's totals exactly
    // (counter series record primed deltas, so the sums telescope).
    const auto& tool = *exp.badabing_tools().front();
    EXPECT_DOUBLE_EQ(rec.find("probes.badabing.probes_sent")->total_sum(),
                     static_cast<double>(tool.probes_sent()));

    // The engineered CBR episodes show up as start/end annotation pairs.
    const auto truth = exp.truth();
    ASSERT_GT(truth.episodes, 0u);
    std::size_t starts = 0;
    std::size_t ends = 0;
    for (const auto& a : rec.annotations()) {
        if (a.label == "episode.start") ++starts;
        if (a.label == "episode.end") ++ends;
    }
    EXPECT_EQ(starts, truth.episodes);
    EXPECT_EQ(ends, truth.episodes);
}

TEST(ExperimentRecorder, DisabledConfigRecordsNothing) {
    ObsOn guard;
    WorkloadConfig wl = short_cbr();
    wl.duration = seconds_i(2);
    TruthConfig tc;
    Experiment exp{TestbedConfig{}, wl, tc};
    SimRecordingConfig rc;  // enabled defaults to false
    ExperimentRecorder recording{exp, rc};
    exp.run();
    recording.finish();
    EXPECT_FALSE(recording.recorder().on());
    EXPECT_EQ(recording.recorder().samples(), 0u);
}

// The sim-layer hooks behind the recorder: per-discipline drop counters and
// the occupancy high-water gauge.
TEST(QueueObsHooks, DropTailCountersAndOccupancyMax) {
    ObsOn guard;
    const std::uint64_t drops_before = obs::counter("sim.queue.drop_tail.drops").value();

    WorkloadConfig wl = short_cbr();
    TruthConfig tc;
    Experiment exp{TestbedConfig{}, wl, tc};
    exp.run();

    const std::uint64_t queue_drops = exp.testbed().bottleneck().drops();
    ASSERT_GT(queue_drops, 0u);  // the engineered episodes guarantee drops
    EXPECT_GE(obs::counter("sim.queue.drop_tail.drops").value() - drops_before,
              queue_drops);

    const std::int64_t high_water = exp.testbed().bottleneck().max_queue_bytes();
    EXPECT_GT(high_water, 0);
    // The gauge tracks the process-wide maximum, so it is at least this run's.
    EXPECT_GE(obs::gauge("sim.queue.occupancy_max").value(),
              static_cast<double>(high_water));
}

TEST(ProgressTracker, AccumulatesAndEstimatesEta) {
    ProgressTracker tracker{4};
    const SweepProgress p1 = tracker.on_cell("aaaa", false, 2.0);
    EXPECT_EQ(p1.done, 1u);
    EXPECT_EQ(p1.total, 4u);
    EXPECT_EQ(p1.computed, 1u);
    EXPECT_DOUBLE_EQ(p1.elapsed_seconds, 2.0);
    // 3 remaining at 2 s mean.
    EXPECT_DOUBLE_EQ(p1.eta_seconds, 6.0);

    const SweepProgress p2 = tracker.on_cell("bbbb", true, 0.01);
    EXPECT_EQ(p2.cached, 1u);
    EXPECT_TRUE(p2.cell_cached);
    // Cache hits don't dilute the computed-cell mean: 2 remaining at 2 s.
    EXPECT_DOUBLE_EQ(p2.eta_seconds, 4.0);

    const SweepProgress p3 = tracker.on_cell("cccc", false, 4.0);
    // Mean computed cost now 3 s, 1 cell remaining.
    EXPECT_DOUBLE_EQ(p3.eta_seconds, 3.0);
    EXPECT_EQ(p3.config_hash, "cccc");
}

TEST(ProgressTracker, JsonAndLineRender) {
    ProgressTracker tracker{2};
    (void)tracker.on_cell("aaaa", false, 1.5);
    const SweepProgress p = tracker.on_cell("bbbb", true, 0.0);

    const std::string doc = progress_json(p);
    const JsonParse parsed = json_parse(doc, "<progress>");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.find("done")->int_value, 2);
    EXPECT_EQ(parsed.value.find("total")->int_value, 2);
    EXPECT_EQ(parsed.value.find("cached")->int_value, 1);
    const JsonValue* cell = parsed.value.find("cell");
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->find("config_hash")->string_value, "bbbb");

    const std::string line = progress_line(p);
    EXPECT_NE(line.find("cell 2/2"), std::string::npos);
    EXPECT_NE(line.find("bbbb"), std::string::npos);
    EXPECT_NE(line.find("cached"), std::string::npos);
}

}  // namespace
}  // namespace bb::scenarios

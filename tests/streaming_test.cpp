// Unit tests for the streaming measurement pipeline: sink adapters, the
// streaming analyzer, the streaming experiment scorer, the
// synthetic series generator, and the online episode/zing accumulators.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/estimators.h"
#include "core/probe_process.h"
#include "core/report_sink.h"
#include "core/synthetic.h"
#include "measure/episodes.h"
#include "probes/zing.h"
#include "util/rng.h"

namespace bb::core {
namespace {

std::vector<ExperimentResult> crafted_reports() {
    return {
        {ExperimentKind::basic, 0b00},    {ExperimentKind::basic, 0b01},
        {ExperimentKind::basic, 0b10},    {ExperimentKind::basic, 0b11},
        {ExperimentKind::extended, 0b000}, {ExperimentKind::extended, 0b001},
        {ExperimentKind::extended, 0b100}, {ExperimentKind::extended, 0b011},
        {ExperimentKind::extended, 0b110}, {ExperimentKind::extended, 0b111},
    };
}

StateCounts tally(const std::vector<ExperimentResult>& reports) {
    StateCounts c;
    for (const auto& r : reports) c.add(r);
    return c;
}

TEST(Sinks, VectorSinkCollectsInOrder) {
    VectorSink<ExperimentResult> sink;
    for (const auto& r : crafted_reports()) sink.consume(r);
    ASSERT_EQ(sink.items().size(), 10u);
    EXPECT_EQ(sink.items()[3].code, 0b11);
    const auto taken = VectorSink<ExperimentResult>{sink}.take();
    EXPECT_EQ(taken.size(), 10u);
}

TEST(Sinks, TeeSinkFansOut) {
    CountsSink a;
    CountsSink b;
    TeeSink<ExperimentResult> tee;
    tee.add(a);
    tee.add(b);
    for (const auto& r : crafted_reports()) tee.consume(r);
    EXPECT_EQ(a.reports(), 10u);
    EXPECT_EQ(b.reports(), 10u);
    EXPECT_EQ(a.counts().S(), b.counts().S());
}

TEST(Sinks, FnSinkInvokesCallable) {
    int basic = 0;
    auto sink = make_fn_sink<ExperimentResult>([&basic](const ExperimentResult& r) {
        if (r.kind == ExperimentKind::basic) ++basic;
    });
    for (const auto& r : crafted_reports()) sink.consume(r);
    EXPECT_EQ(basic, 4);
}

TEST(Sinks, CountsSinkMatchesManualTally) {
    CountsSink sink;
    for (const auto& r : crafted_reports()) sink.consume(r);
    const StateCounts batch = tally(crafted_reports());
    EXPECT_EQ(sink.counts().R(), batch.R());
    EXPECT_EQ(sink.counts().U(), batch.U());
    EXPECT_EQ(sink.counts().V(), batch.V());
    EXPECT_EQ(sink.reports(), 10u);
}

TEST(OnlineEstimators, FrequencyMatchesBatchExactly) {
    for (const bool from_extended : {false, true}) {
        EstimatorOptions opts;
        opts.frequency_from_extended = from_extended;
        StreamingAnalyzer online{opts};
        for (const auto& r : crafted_reports()) online.consume(r);
        const FrequencyEstimate batch = estimate_frequency(tally(crafted_reports()), opts);
        const FrequencyEstimate stream = online.finalize().frequency;
        EXPECT_EQ(stream.value, batch.value);
        EXPECT_EQ(stream.samples, batch.samples);
    }
}

TEST(OnlineEstimators, DurationMatchesBatchExactly) {
    for (const bool pairs_ext : {false, true}) {
        EstimatorOptions opts;
        opts.pairs_from_extended = pairs_ext;
        StreamingAnalyzer online{opts};
        for (const auto& r : crafted_reports()) online.consume(r);
        const auto res = online.finalize();
        const StateCounts counts = tally(crafted_reports());
        const DurationEstimate bb = estimate_duration_basic(counts, opts);
        const DurationEstimate& sb = res.duration_basic;
        EXPECT_EQ(sb.slots, bb.slots);
        EXPECT_EQ(sb.R, bb.R);
        EXPECT_EQ(sb.S, bb.S);
        EXPECT_EQ(sb.valid, bb.valid);
        const DurationEstimate bi = estimate_duration_improved(counts, opts);
        const DurationEstimate& si = res.duration_improved;
        EXPECT_EQ(si.slots, bi.slots);
        EXPECT_EQ(si.valid, bi.valid);
        EXPECT_EQ(si.r_hat.has_value(), bi.r_hat.has_value());
        if (bi.r_hat) {
            EXPECT_EQ(*si.r_hat, *bi.r_hat);
        }
    }
}

TEST(OnlineEstimators, ValidationDelegatesToBatch) {
    StreamingAnalyzer online;
    for (const auto& r : crafted_reports()) online.consume(r);
    const ValidationReport batch = validate(tally(crafted_reports()));
    const ValidationReport stream = online.finalize().validation;
    EXPECT_EQ(stream.pair_asymmetry, batch.pair_asymmetry);
    EXPECT_EQ(stream.transitions, batch.transitions);
    EXPECT_EQ(stream.violations, batch.violations);
    EXPECT_EQ(stream.violation_fraction, batch.violation_fraction);
}

TEST(OnlineEstimators, AnalyzerIsASink) {
    StreamingAnalyzer analyzer;
    ReportSink& sink = analyzer;
    for (const auto& r : crafted_reports()) sink.consume(r);
    EXPECT_EQ(analyzer.counts().basic_total(), 4u);
    EXPECT_EQ(analyzer.reports(), 10u);
    EXPECT_EQ(analyzer.finalize().frequency.value,
              estimate_frequency(tally(crafted_reports())).value);
}

TEST(OnlineEstimators, EmptySequenceIsInvalidNotNan) {
    const StreamingAnalyzer analyzer;
    const auto res = analyzer.finalize();
    EXPECT_FALSE(res.frequency.valid());
    EXPECT_FALSE(res.duration_basic.valid);
    EXPECT_FALSE(res.duration_improved.valid);
    EXPECT_TRUE(res.validation.acceptable());
    EXPECT_EQ(res.reports, 0u);
}

TEST(OnlineEstimators, AllZeroReportsGiveZeroFrequency) {
    StreamingAnalyzer analyzer;
    for (int i = 0; i < 100; ++i) analyzer.consume({ExperimentKind::basic, 0b00});
    const auto res = analyzer.finalize();
    EXPECT_EQ(res.frequency.value, 0.0);
    EXPECT_EQ(res.frequency.samples, 100u);
    EXPECT_FALSE(res.duration_basic.valid);  // S == 0
}

TEST(OnlineEstimators, AnalyzerComposesAllThree) {
    StreamingAnalyzer analyzer;
    for (const auto& r : crafted_reports()) analyzer.consume(r);
    const auto res = analyzer.finalize();
    const StateCounts counts = tally(crafted_reports());
    EXPECT_EQ(res.frequency.value, estimate_frequency(counts).value);
    EXPECT_EQ(res.duration_basic.slots, estimate_duration_basic(counts).slots);
    EXPECT_EQ(res.duration_improved.slots, estimate_duration_improved(counts).slots);
    EXPECT_EQ(res.validation.pair_asymmetry, validate(counts).pair_asymmetry);
    EXPECT_EQ(res.reports, 10u);
    EXPECT_EQ(analyzer.counts().basic_total(), counts.basic_total());
}

TEST(StreamingScorer, MatchesBatchDesignAndScoring) {
    for (const bool improved : {false, true}) {
        ProbeProcessConfig cfg;
        cfg.p = 0.4;
        cfg.improved = improved;
        const SlotIndex slots = 500;
        std::vector<bool> congested(slots);
        Rng mark_rng{99};
        for (auto&& c : congested) c = mark_rng.bernoulli(0.2);

        Rng batch_rng{1234};
        const ProbeDesign design = design_probe_process(batch_rng, slots, cfg);
        const auto batch = score_experiments(design.experiments, [&](SlotIndex s) {
            return congested[static_cast<std::size_t>(s)];
        });

        VectorSink<ExperimentResult> stream;
        StreamingExperimentScorer scorer{Rng{1234}, cfg, stream};
        for (SlotIndex s = 0; s < slots; ++s) {
            scorer.step(congested[static_cast<std::size_t>(s)]);
        }

        ASSERT_EQ(stream.items().size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(stream.items()[i].kind, batch[i].kind);
            EXPECT_EQ(stream.items()[i].code, batch[i].code);
        }
        EXPECT_EQ(scorer.experiments_completed(), batch.size());
        EXPECT_EQ(scorer.slots_seen(), slots);
    }
}

TEST(StreamingScorer, PendingExperimentsDroppedAtEndOfStream) {
    // With p = 1 every slot starts a basic experiment; after N steps the
    // experiment started at the last slot is still pending and must not have
    // been reported.
    ProbeProcessConfig cfg;
    cfg.p = 1.0;
    CountsSink sink;
    StreamingExperimentScorer scorer{Rng{7}, cfg, sink};
    for (int s = 0; s < 10; ++s) scorer.step(false);
    EXPECT_EQ(scorer.experiments_started(), 10u);
    EXPECT_EQ(scorer.experiments_completed(), 9u);
    EXPECT_EQ(scorer.experiments_pending(), 1);
    EXPECT_EQ(sink.reports(), 9u);
}

TEST(StreamingScorer, RejectsInvalidConfig) {
    CountsSink sink;
    ProbeProcessConfig bad;
    bad.p = 0.0;
    EXPECT_THROW((StreamingExperimentScorer{Rng{1}, bad, sink}), std::invalid_argument);
    bad.p = 0.5;
    bad.extended_fraction = 1.5;
    EXPECT_THROW((StreamingExperimentScorer{Rng{1}, bad, sink}), std::invalid_argument);
}

TEST(SyntheticStreaming, GeneratorPrefixMatchesBatchSeries) {
    const SlotIndex slots = 4000;
    Rng batch_rng{42};
    const std::vector<bool> batch = synth_congestion_series(batch_rng, slots, 12.0, 48.0);
    SyntheticSeriesGen gen{Rng{42}, 12.0, 48.0};
    for (SlotIndex s = 0; s < slots; ++s) {
        ASSERT_EQ(gen.next(), batch[static_cast<std::size_t>(s)]) << "slot " << s;
    }
}

TEST(SyntheticStreaming, GeneratorHandsBackTheAdvancedRng) {
    // synth_congestion_series leaves the caller's Rng exactly where a
    // generator stopped after the same slots leaves its own engine.
    const SlotIndex slots = 2500;
    Rng batch_rng{77};
    (void)synth_congestion_series(batch_rng, slots, 6.0, 30.0);
    SyntheticSeriesGen gen{Rng{77}, 6.0, 30.0};
    for (SlotIndex s = 0; s < slots; ++s) (void)gen.next();
    Rng gen_rng = gen.rng();
    EXPECT_EQ(batch_rng.next_u64(), gen_rng.next_u64());
}

TEST(SyntheticStreaming, TruthAccumulatorMatchesBatchTruth) {
    Rng rng{11};
    const std::vector<bool> series = synth_congestion_series(rng, 3000, 8.0, 32.0);
    SeriesTruthAccumulator acc;
    for (const bool c : series) acc.consume(c);
    const SeriesTruth batch = series_truth(series);
    const SeriesTruth stream = acc.finalize();
    EXPECT_EQ(stream.frequency, batch.frequency);
    EXPECT_EQ(stream.mean_duration_slots, batch.mean_duration_slots);
    EXPECT_EQ(stream.episodes, batch.episodes);
    EXPECT_EQ(acc.slots(), 3000u);
}

TEST(SyntheticStreaming, FinalizeMidRunIsPrefixTruth) {
    // finalize() must close the open run without disturbing further consume()s.
    SeriesTruthAccumulator acc;
    const std::vector<bool> series{true, true, false, true};
    acc.consume(series[0]);
    acc.consume(series[1]);
    const SeriesTruth mid = acc.finalize();
    EXPECT_EQ(mid.episodes, 1u);
    EXPECT_EQ(mid.frequency, 1.0);
    acc.consume(series[2]);
    acc.consume(series[3]);
    const SeriesTruth full = acc.finalize();
    EXPECT_EQ(full.episodes, 2u);
    EXPECT_EQ(full.frequency, series_truth(series).frequency);
}

}  // namespace
}  // namespace bb::core

namespace bb::measure {
namespace {

TEST(EpisodeAccumulator, EmptyAndSingleDropEdgeCases) {
    EpisodeAccumulator::Config cfg;
    cfg.gap = milliseconds(100);
    cfg.slot_width = milliseconds(5);
    cfg.window_begin = TimeNs::zero();
    cfg.window_end = seconds_i(10);

    EpisodeAccumulator empty{cfg};
    const TruthSummary none = empty.finalize();
    EXPECT_EQ(none.episodes, 0u);
    EXPECT_EQ(none.frequency, 0.0);

    EpisodeAccumulator one{cfg};
    one.add_drop(seconds_i(1));
    const TruthSummary single = one.finalize();
    EXPECT_EQ(single.episodes, 1u);
    EXPECT_EQ(single.total_drops, 1u);
    EXPECT_EQ(one.drops_seen(), 1u);
}

TEST(EpisodeAccumulator, MatchesBatchExtractAndSummarize) {
    const TimeNs gap = milliseconds(100);
    const TimeNs slot = milliseconds(5);
    const TimeNs window_end = seconds_i(30);

    std::vector<TimeNs> drops;
    Rng rng{2024};
    TimeNs t = milliseconds(50);
    while (t < window_end + seconds_i(2)) {  // some drops past the window
        drops.push_back(t);
        // Mix of intra-episode spacings and episode-terminating gaps.
        t = t + (rng.bernoulli(0.7) ? milliseconds(20) : milliseconds(400));
    }

    EpisodeAccumulator::Config cfg{gap, slot, TimeNs::zero(), window_end};
    EpisodeAccumulator acc{cfg};
    for (const TimeNs at : drops) acc.add_drop(at);

    const TruthSummary batch =
        summarize_truth(extract_episodes(drops, gap), slot, TimeNs::zero(), window_end);
    const TruthSummary stream = acc.finalize();
    EXPECT_EQ(stream.frequency, batch.frequency);
    EXPECT_EQ(stream.mean_duration_s, batch.mean_duration_s);
    EXPECT_EQ(stream.sd_duration_s, batch.sd_duration_s);
    EXPECT_EQ(stream.episodes, batch.episodes);
    EXPECT_EQ(stream.total_drops, batch.total_drops);
}

TEST(EpisodeAccumulator, GapBoundaryIsInclusiveLikeBatch) {
    // Drops exactly `gap` apart stay one episode and one nanosecond more
    // splits, in the online fold as in extract_episodes.
    EpisodeAccumulator::Config cfg{milliseconds(100), milliseconds(5), TimeNs::zero(),
                                   seconds_i(1)};
    for (const auto& [second, episodes] :
         {std::pair{milliseconds(100), 1u}, std::pair{milliseconds(100) + TimeNs{1}, 2u}}) {
        EpisodeAccumulator acc{cfg};
        acc.add_drop(TimeNs::zero());
        acc.add_drop(second);
        EXPECT_EQ(acc.finalize().episodes, episodes);
        EXPECT_EQ(extract_episodes({TimeNs::zero(), second}, cfg.gap).size(), episodes);
    }
}

TEST(EpisodeAccumulator, DegenerateWindowYieldsEmptySummary) {
    EpisodeAccumulator::Config cfg;
    cfg.window_begin = seconds_i(5);
    cfg.window_end = seconds_i(5);  // empty window
    EpisodeAccumulator acc{cfg};
    acc.add_drop(seconds_i(1));
    const TruthSummary s = acc.finalize();
    EXPECT_EQ(s.episodes, 0u);
    EXPECT_EQ(s.frequency, 0.0);
}

}  // namespace
}  // namespace bb::measure

namespace bb::probes {
namespace {

core::ProbeOutcome outcome_at(std::int64_t idx, TimeNs at, bool received) {
    core::ProbeOutcome po;
    po.slot = idx;
    po.send_time = at;
    po.packets_sent = 1;
    po.packets_lost = received ? 0 : 1;
    po.any_received = received;
    return po;
}

TEST(ZingRunAccumulator, FoldsRunsLikeBatchResult) {
    // received pattern: 1 0 0 1 1 0 — one closed 2-run, one open 1-run.
    const std::vector<bool> received{true, false, false, true, true, false};
    ZingRunAccumulator acc;
    for (std::size_t i = 0; i < received.size(); ++i) {
        acc.consume(outcome_at(static_cast<std::int64_t>(i),
                               milliseconds(100 * (static_cast<std::int64_t>(i) + 1)),
                               received[i]));
    }
    const ZingResult res = acc.finalize();
    EXPECT_EQ(res.sent, 6u);
    EXPECT_EQ(res.received, 3u);
    EXPECT_EQ(res.lost, 3u);
    EXPECT_EQ(res.loss_runs, 2u);
    EXPECT_EQ(res.max_run_length, 2u);
    EXPECT_DOUBLE_EQ(res.loss_frequency, 0.5);
    // First run spans probes 1..2 (200 ms -> 300 ms): 0.1 s; open run is a
    // single loss: 0 s.
    EXPECT_DOUBLE_EQ(res.mean_duration_s, 0.05);
}

TEST(ZingRunAccumulator, EmptyAndAllReceivedSequences) {
    const ZingResult empty = ZingRunAccumulator{}.finalize();
    EXPECT_EQ(empty.sent, 0u);
    EXPECT_EQ(empty.loss_frequency, 0.0);

    ZingRunAccumulator acc;
    for (int i = 0; i < 5; ++i) {
        acc.consume(outcome_at(i, milliseconds(10 * (i + 1)), true));
    }
    const ZingResult all = acc.finalize();
    EXPECT_EQ(all.lost, 0u);
    EXPECT_EQ(all.loss_runs, 0u);
    EXPECT_EQ(all.loss_frequency, 0.0);
}

}  // namespace
}  // namespace bb::probes

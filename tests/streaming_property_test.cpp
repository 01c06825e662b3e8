// Property tests for the streaming pipeline's bit-identity guarantee: for
// random report sequences, random congestion series, and adversarial
// boundary patterns, the online accumulators must agree EXACTLY (==, not
// nearly) with the batch estimators, because both paths reduce to the same
// integer tallies and evaluate the same floating-point expressions.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "core/estimators.h"
#include "core/probe_process.h"
#include "core/streaming.h"
#include "core/synthetic.h"
#include "core/validation.h"
#include "measure/episodes.h"
#include "util/rng.h"

namespace bb::core {
namespace {

std::vector<ExperimentResult> random_reports(Rng& rng, std::size_t n,
                                             double extended_fraction) {
    std::vector<ExperimentResult> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ExperimentResult r;
        if (rng.bernoulli(extended_fraction)) {
            r.kind = ExperimentKind::extended;
            r.code = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
        } else {
            r.kind = ExperimentKind::basic;
            r.code = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
        }
        out.push_back(r);
    }
    return out;
}

void expect_streaming_equals_batch(const std::vector<ExperimentResult>& reports,
                                   const EstimatorOptions& opts) {
    StreamingAnalyzer analyzer{opts};
    StateCounts counts;
    for (const auto& r : reports) {
        analyzer.consume(r);
        counts.add(r);
    }
    const auto res = analyzer.finalize();

    const FrequencyEstimate bf = estimate_frequency(counts, opts);
    EXPECT_EQ(res.frequency.value, bf.value);
    EXPECT_EQ(res.frequency.samples, bf.samples);

    const DurationEstimate bd = estimate_duration_basic(counts, opts);
    EXPECT_EQ(res.duration_basic.slots, bd.slots);
    EXPECT_EQ(res.duration_basic.R, bd.R);
    EXPECT_EQ(res.duration_basic.S, bd.S);
    EXPECT_EQ(res.duration_basic.valid, bd.valid);

    const DurationEstimate bi = estimate_duration_improved(counts, opts);
    EXPECT_EQ(res.duration_improved.slots, bi.slots);
    EXPECT_EQ(res.duration_improved.valid, bi.valid);
    ASSERT_EQ(res.duration_improved.r_hat.has_value(), bi.r_hat.has_value());
    if (bi.r_hat) {
        EXPECT_EQ(*res.duration_improved.r_hat, *bi.r_hat);
    }

    const ValidationReport bv = validate(counts);
    EXPECT_EQ(res.validation.pair_asymmetry, bv.pair_asymmetry);
    EXPECT_EQ(res.validation.transitions, bv.transitions);
    EXPECT_EQ(res.validation.single_rate_spread, bv.single_rate_spread);
    EXPECT_EQ(res.validation.ext_pair_asymmetry, bv.ext_pair_asymmetry);
    EXPECT_EQ(res.validation.violations, bv.violations);
    EXPECT_EQ(res.validation.violation_fraction, bv.violation_fraction);
}

TEST(StreamingEquivalence, RandomReportSequences) {
    Rng rng{0xFEED};
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 400));
        const double ext = rng.uniform(0.0, 1.0);
        const auto reports = random_reports(rng, n, ext);
        EstimatorOptions opts;
        opts.frequency_from_extended = rng.bernoulli(0.5);
        opts.pairs_from_extended = rng.bernoulli(0.5);
        expect_streaming_equals_batch(reports, opts);
    }
}

TEST(StreamingEquivalence, BoundaryPatterns) {
    // Sequences engineered to stress run boundaries: a 01 transition as the
    // very last report, a 10 transition as the very first, and all-identical
    // runs of every code.
    std::vector<std::vector<ExperimentResult>> cases;
    cases.push_back({{ExperimentKind::basic, 0b10},
                     {ExperimentKind::basic, 0b00},
                     {ExperimentKind::basic, 0b01}});
    cases.push_back({{ExperimentKind::basic, 0b10}});
    cases.push_back({{ExperimentKind::basic, 0b01}});
    cases.push_back({});  // empty report sequence
    for (std::uint8_t code = 0; code < 4; ++code) {
        cases.emplace_back(64, ExperimentResult{ExperimentKind::basic, code});
    }
    for (std::uint8_t code = 0; code < 8; ++code) {
        cases.emplace_back(64, ExperimentResult{ExperimentKind::extended, code});
    }
    for (const auto& reports : cases) {
        for (const bool pairs_ext : {false, true}) {
            EstimatorOptions opts;
            opts.pairs_from_extended = pairs_ext;
            expect_streaming_equals_batch(reports, opts);
        }
    }
}

TEST(StreamingEquivalence, ScorerPipelineMatchesBatchPipeline) {
    // Same seed -> the streaming designer/scorer must emit exactly the report
    // stream the batch design + score path produces, for random congestion
    // series and configs.
    Rng meta{0xABCD};
    for (int trial = 0; trial < 20; ++trial) {
        ProbeProcessConfig cfg;
        cfg.p = meta.uniform(0.05, 1.0);
        cfg.improved = meta.bernoulli(0.5);
        cfg.extended_fraction = meta.uniform(0.0, 1.0);
        const SlotIndex slots = meta.uniform_int(1, 800);
        const std::uint64_t seed = static_cast<std::uint64_t>(meta.uniform_int(1, 1 << 30));

        std::vector<bool> congested(static_cast<std::size_t>(slots));
        const double rho = meta.uniform(0.0, 1.0);
        for (auto&& c : congested) c = meta.bernoulli(rho);

        Rng batch_rng{seed};
        const ProbeDesign design = design_probe_process(batch_rng, slots, cfg);
        const auto batch = score_experiments(design.experiments, [&](SlotIndex s) {
            return congested[static_cast<std::size_t>(s)];
        });

        VectorSink<ExperimentResult> stream;
        StreamingExperimentScorer scorer{Rng{seed}, cfg, stream};
        for (SlotIndex s = 0; s < slots; ++s) {
            scorer.step(congested[static_cast<std::size_t>(s)]);
        }

        ASSERT_EQ(stream.items().size(), batch.size()) << "trial " << trial;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            ASSERT_EQ(stream.items()[i].kind, batch[i].kind) << "trial " << trial;
            ASSERT_EQ(stream.items()[i].code, batch[i].code) << "trial " << trial;
        }
    }
}

// The pending-list scorer the shift registers replaced: every started
// experiment waits in start order, takes one congestion bit per slot, and is
// reported once it holds as many bits as it has probes.
class PendingListScorer {
public:
    void step(std::optional<ExperimentKind> kind, bool congested) {
        if (kind) {
            pending_.push_back({*kind, 0, 0});
            ++started_;
        }
        std::vector<Pending> kept;
        for (Pending p : pending_) {
            p.code = static_cast<std::uint8_t>((p.code << 1) | (congested ? 1 : 0));
            ++p.digits;
            if (p.digits == (p.kind == ExperimentKind::basic ? 2 : 3)) {
                emitted_.push_back({p.kind, p.code});
            } else {
                kept.push_back(p);
            }
        }
        pending_ = std::move(kept);
    }

    [[nodiscard]] std::uint64_t started() const noexcept { return started_; }
    [[nodiscard]] std::uint64_t completed() const noexcept { return emitted_.size(); }
    [[nodiscard]] int pending() const noexcept { return static_cast<int>(pending_.size()); }
    [[nodiscard]] const std::vector<ExperimentResult>& emitted() const noexcept {
        return emitted_;
    }

private:
    struct Pending {
        ExperimentKind kind;
        std::uint8_t code;
        int digits;
    };
    std::vector<Pending> pending_;
    std::vector<ExperimentResult> emitted_;
    std::uint64_t started_{0};
};

TEST(StreamingEquivalence, ScorerCountersMatchPendingListOracleEveryStep) {
    Rng meta{0x5C0E};
    for (int trial = 0; trial < 300; ++trial) {
        ProbeProcessConfig cfg;
        cfg.p = trial % 10 == 0 ? 1.0 : 1.0 - meta.uniform01();  // (0, 1]
        cfg.improved = trial % 2 == 1;
        cfg.extended_fraction = std::array{0.0, 0.5, 1.0}[static_cast<std::size_t>(trial % 3)];
        const SlotIndex slots = trial % 5 < 4 ? trial % 5 : meta.uniform_int(4, 2'000);
        const std::uint64_t seed = meta.next_u64();
        const double rho = meta.uniform01();

        VectorSink<ExperimentResult> sink;
        StreamingExperimentScorer scorer{Rng{seed}, cfg, sink};
        Rng oracle_rng{seed};
        PendingListScorer oracle;
        for (SlotIndex s = 0; s < slots; ++s) {
            const bool congested = meta.bernoulli(rho);
            scorer.step(congested);
            oracle.step(draw_experiment_start(oracle_rng, cfg), congested);
            ASSERT_EQ(scorer.experiments_started(), oracle.started())
                << "trial " << trial << " slot " << s;
            ASSERT_EQ(scorer.experiments_completed(), oracle.completed())
                << "trial " << trial << " slot " << s;
            ASSERT_EQ(scorer.experiments_pending(), oracle.pending())
                << "trial " << trial << " slot " << s;
            ASSERT_EQ(sink.items().size(), oracle.emitted().size())
                << "trial " << trial << " slot " << s;
        }
        for (std::size_t i = 0; i < oracle.emitted().size(); ++i) {
            ASSERT_EQ(sink.items()[i].kind, oracle.emitted()[i].kind) << "trial " << trial;
            ASSERT_EQ(sink.items()[i].code, oracle.emitted()[i].code) << "trial " << trial;
        }
    }
}

TEST(StreamingEquivalence, SyntheticGeneratorMatchesBatchForRandomParams) {
    Rng meta{0x90125};
    for (int trial = 0; trial < 20; ++trial) {
        const double mean_on = meta.uniform(1.0, 40.0);
        const double mean_off = meta.uniform(1.0, 200.0);
        const SlotIndex slots = meta.uniform_int(1, 2000);
        const std::uint64_t seed = static_cast<std::uint64_t>(meta.uniform_int(1, 1 << 30));

        Rng batch_rng{seed};
        const std::vector<bool> batch =
            synth_congestion_series(batch_rng, slots, mean_on, mean_off);
        SyntheticSeriesGen gen{Rng{seed}, mean_on, mean_off};
        SeriesTruthAccumulator acc;
        for (SlotIndex s = 0; s < slots; ++s) {
            const bool c = gen.next();
            ASSERT_EQ(c, batch[static_cast<std::size_t>(s)]) << "trial " << trial;
            acc.consume(c);
        }
        const SeriesTruth bt = series_truth(batch);
        const SeriesTruth st = acc.finalize();
        EXPECT_EQ(st.frequency, bt.frequency);
        EXPECT_EQ(st.mean_duration_slots, bt.mean_duration_slots);
        EXPECT_EQ(st.episodes, bt.episodes);
    }
}

}  // namespace
}  // namespace bb::core

namespace bb::measure {
namespace {

TEST(StreamingEquivalence, EpisodeAccumulatorMatchesBatchForRandomDrops) {
    Rng meta{0x7777};
    for (int trial = 0; trial < 30; ++trial) {
        const TimeNs gap = milliseconds(meta.uniform_int(10, 300));
        const TimeNs slot = milliseconds(meta.uniform_int(1, 20));
        const TimeNs window_end = seconds_i(meta.uniform_int(1, 60));

        std::vector<TimeNs> drops;
        TimeNs t = milliseconds(meta.uniform_int(0, 500));
        while (t < window_end + seconds_i(3)) {
            drops.push_back(t);
            t = t + milliseconds(meta.uniform_int(1, 600));
        }
        if (meta.bernoulli(0.1)) drops.clear();  // occasionally empty

        EpisodeAccumulator acc{{gap, slot, TimeNs::zero(), window_end}};
        for (const TimeNs at : drops) acc.add_drop(at);

        const TruthSummary batch =
            summarize_truth(extract_episodes(drops, gap), slot, TimeNs::zero(), window_end);
        const TruthSummary stream = acc.finalize();
        EXPECT_EQ(stream.frequency, batch.frequency) << "trial " << trial;
        EXPECT_EQ(stream.mean_duration_s, batch.mean_duration_s) << "trial " << trial;
        EXPECT_EQ(stream.sd_duration_s, batch.sd_duration_s) << "trial " << trial;
        EXPECT_EQ(stream.episodes, batch.episodes) << "trial " << trial;
        EXPECT_EQ(stream.total_drops, batch.total_drops) << "trial " << trial;
    }
}

}  // namespace
}  // namespace bb::measure

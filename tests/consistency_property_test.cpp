// Property-based verification of the paper's §5 consistency claims: on a
// synthetic alternating-renewal congestion process observed through the
// fidelity model, F̂ converges to the true congested-slot frequency and D̂ to
// the true mean episode duration.  Parameterized sweeps cover probe rates,
// episode shapes and fidelity regimes (including p1 != p2, where only the
// improved estimator stays consistent).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/estimators.h"
#include "core/probe_process.h"
#include "core/synthetic.h"
#include "core/validation.h"
#include "param_name.h"
#include "util/stats.h"

namespace bb::core {
namespace {

struct Sweep {
    double p;              // probe process rate
    double mean_on;        // true mean episode duration (slots)
    double mean_off;       // true mean gap (slots)
    double p1;             // fidelity for single-congested reports
    double p2;             // fidelity for double-congested reports
};

class ConsistencySweep : public ::testing::TestWithParam<Sweep> {};

std::string sweep_name(const ::testing::TestParamInfo<Sweep>& param_info) {
    const Sweep& s = param_info.param;
    return "p" + param_token(s.p) + "_on" + param_token(s.mean_on) + "_off" +
           param_token(s.mean_off) + "_p1_" + param_token(s.p1) + "_p2_" + param_token(s.p2);
}

constexpr SlotIndex kSlots = 2'000'000;

struct RunOutput {
    SeriesTruth truth;
    FrequencyEstimate freq;
    DurationEstimate dur_basic;
    DurationEstimate dur_improved;
    DurationEstimate dur_improved_folded;  // §5.5: extended pairs folded into R/S
    ValidationReport validation;
};

RunOutput run_once(const Sweep& sw, std::uint64_t seed) {
    Rng rng{seed};
    const auto series = synth_congestion_series(rng, kSlots, sw.mean_on, sw.mean_off);

    ProbeProcessConfig pcfg;
    pcfg.p = sw.p;
    pcfg.improved = true;
    const auto design = design_probe_process(rng, kSlots, pcfg);
    const auto obs =
        observe_with_fidelity(design.experiments, series, FidelityModel{sw.p1, sw.p2}, rng);

    StateCounts counts;
    for (const auto& r : obs) counts.add(r);

    RunOutput out;
    out.truth = series_truth(series);
    out.freq = estimate_frequency(counts);
    out.dur_basic = estimate_duration_basic(counts);
    out.dur_improved = estimate_duration_improved(counts);
    EstimatorOptions folded;
    folded.pairs_from_extended = true;
    out.dur_improved_folded = estimate_duration_improved(counts, folded);
    out.validation = validate(counts);
    return out;
}

TEST_P(ConsistencySweep, FrequencyConvergesWhenReportsAreFaithful) {
    const Sweep sw = GetParam();
    if (sw.p1 < 1.0) GTEST_SKIP() << "frequency is only unbiased for p1 = 1";
    const auto out = run_once(sw, 42);
    ASSERT_TRUE(out.freq.valid());
    EXPECT_NEAR(out.freq.value, out.truth.frequency, 0.15 * out.truth.frequency + 0.002);
}

TEST_P(ConsistencySweep, ImprovedDurationConverges) {
    const Sweep sw = GetParam();
    if (sw.mean_on < 5.0) {
        // Paper §7: the discretization must be finer than the episode
        // durations.  When single-slot episodes dominate, no {011,110}
        // patterns exist for them, so U/V under-counts and the improved
        // duration is biased; see ShortEpisodesBiasImprovedEstimator below.
        GTEST_SKIP();
    }
    const auto out = run_once(sw, 43);
    ASSERT_TRUE(out.dur_improved.valid);
    EXPECT_NEAR(out.dur_improved.slots, out.truth.mean_duration_slots,
                0.2 * out.truth.mean_duration_slots + 0.5);
}

TEST_P(ConsistencySweep, BasicDurationConvergesOnlyWhenREqualsOne) {
    const Sweep sw = GetParam();
    const auto out = run_once(sw, 44);
    ASSERT_TRUE(out.dur_basic.valid);
    if (std::abs(sw.p1 - sw.p2) < 1e-9) {
        EXPECT_NEAR(out.dur_basic.slots, out.truth.mean_duration_slots,
                    0.2 * out.truth.mean_duration_slots + 0.5);
    } else if (sw.p2 < sw.p1) {
        // Under-reported 11 states bias the basic estimator low.
        EXPECT_LT(out.dur_basic.slots, out.truth.mean_duration_slots);
    } else {
        // Over-reported 11 states bias it high.
        EXPECT_GT(out.dur_basic.slots, out.truth.mean_duration_slots);
    }
}

TEST_P(ConsistencySweep, RHatEstimatesFidelityRatio) {
    const Sweep sw = GetParam();
    const auto out = run_once(sw, 45);
    ASSERT_TRUE(out.dur_improved.r_hat.has_value());
    // For geometric episode lengths with mean m, single-slot episodes have
    // no {011,110} windows, so E[U]/E[V] = (p2/p1) * P(len >= 2)
    //                                   = (p2/p1) * (1 - 1/m).
    const double expected = sw.p2 / sw.p1 * (1.0 - 1.0 / sw.mean_on);
    EXPECT_NEAR(*out.dur_improved.r_hat, expected, 0.25 * expected);
}

// Documents (and pins down) the short-episode bias the paper's §7 warns
// about: when episodes are of the order of one slot, the improved duration
// estimator overshoots by a predictable factor while the basic estimator,
// whose R/S ratio is insensitive to episode length, stays consistent.
TEST(ShortEpisodes, BiasImprovedEstimatorButNotBasic) {
    const Sweep sw{0.5, 2.0, 200.0, 1.0, 1.0};
    const auto out = run_once(sw, 47);
    ASSERT_TRUE(out.dur_basic.valid);
    EXPECT_NEAR(out.dur_basic.slots, out.truth.mean_duration_slots, 0.3);
    ASSERT_TRUE(out.dur_improved.valid);
    // E[U]/E[V] = 1 - 1/2 = 0.5 -> improved estimate ~ 2*(R/S-1)/0.5 + 1 = 3.
    EXPECT_NEAR(out.dur_improved.slots, 3.0, 0.4);
}

TEST_P(ConsistencySweep, ValidationSymmetryHoldsForRenewalProcess) {
    const Sweep sw = GetParam();
    const auto out = run_once(sw, 46);
    EXPECT_LE(out.validation.pair_asymmetry, 0.2);
    EXPECT_LE(out.validation.violation_fraction, 0.02);
}

// §5.5 folds the leading pair of each extended experiment into R/S.  At r = 1
// that adds samples and moves the mean D̂ by under 2%; it does not always
// narrow the spread (at p = 0.3 the SD over these seeds is 11% wider).  At
// r != 1 it biases D̂: the fidelity model keeps a report by its number of
// congested slots, so an extended 011 keeps its leading 01 with p2 where a
// basic 01 is kept with p1.  The folded pairs are not the ones U/V corrects
// for, and the mean D̂ moves part of the way toward D̂/r: measured 16% of
// the way at r = 2/3 and 27% at r = 9/7.
TEST_P(ConsistencySweep, FoldingExtendedPairsMovesDurationTowardOneOverR) {
    const Sweep sw = GetParam();
    RunningStats plain;
    RunningStats folded;
    for (std::uint64_t seed = 500; seed < 520; ++seed) {
        const auto out = run_once(sw, seed);
        ASSERT_TRUE(out.dur_improved.valid);
        ASSERT_TRUE(out.dur_improved_folded.valid);
        plain.add(out.dur_improved.slots);
        folded.add(out.dur_improved_folded.slots);
    }
    const double r = sw.p2 / sw.p1;
    if (std::abs(r - 1.0) < 1e-9) {
        EXPECT_NEAR(folded.mean(), plain.mean(), 0.02 * plain.mean());
        EXPECT_LE(folded.stddev(), 1.15 * plain.stddev());
    } else {
        // The share of the way from D̂ to D̂/r that folding moves the mean.
        const double share = (folded.mean() / plain.mean() - 1.0) / (1.0 / r - 1.0);
        EXPECT_GT(share, 0.1);
        EXPECT_LT(share, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, ConsistencySweep,
    ::testing::Values(Sweep{0.1, 14.0, 1990.0, 1.0, 1.0}, Sweep{0.3, 14.0, 1990.0, 1.0, 1.0},
                      Sweep{0.5, 14.0, 1990.0, 1.0, 1.0}, Sweep{0.9, 14.0, 1990.0, 1.0, 1.0}),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    EpisodeShapes, ConsistencySweep,
    ::testing::Values(Sweep{0.5, 2.0, 200.0, 1.0, 1.0},   // very short episodes
                      Sweep{0.5, 30.0, 1000.0, 1.0, 1.0},  // long episodes
                      Sweep{0.5, 10.0, 90.0, 1.0, 1.0}),   // frequent congestion
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    Fidelity, ConsistencySweep,
    ::testing::Values(Sweep{0.5, 14.0, 500.0, 0.8, 0.8},   // r = 1, imperfect
                      Sweep{0.5, 14.0, 500.0, 0.9, 0.6},   // r < 1: basic biased
                      Sweep{0.5, 14.0, 500.0, 0.7, 0.7},
                      Sweep{0.5, 14.0, 500.0, 0.7, 0.9}),  // r > 1: basic biased high
    sweep_name);

// F̂ is unbiased for any episode geometry; a direct check that the estimate
// errors and the §5.4 pair asymmetry shrink with the number of experiments
// (consistency), summed over seeds.  A run with no {01,10} pair has no D̂ and
// counts as a relative error of 1.
TEST(ConsistencyScaling, ErrorShrinksWithSampleSize) {
    const Sweep sw{0.3, 14.0, 1990.0, 1.0, 1.0};
    struct Errors {
        double freq{0.0};
        double dur{0.0};  // relative
        double asym{0.0};
    };
    Errors small;
    Errors large;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        Rng rng_small{seed + 100};
        Rng rng_large{seed + 200};
        for (auto [slots, err] :
             {std::pair<SlotIndex, Errors*>{30'000, &small}, {600'000, &large}}) {
            Rng& rng = slots == 30'000 ? rng_small : rng_large;
            const auto series = synth_congestion_series(rng, slots, sw.mean_on, sw.mean_off);
            ProbeProcessConfig pcfg;
            pcfg.p = sw.p;
            const auto design = design_probe_process(rng, slots, pcfg);
            const auto obs = observe_with_fidelity(design.experiments, series,
                                                   FidelityModel{1.0, 1.0}, rng);
            StateCounts counts;
            for (const auto& r : obs) counts.add(r);
            const auto truth = series_truth(series);
            const auto f = estimate_frequency(counts);
            const auto d = estimate_duration_basic(counts);
            err->freq += std::abs(f.value - truth.frequency);
            err->dur += std::abs((d.valid ? d.slots : 0.0) - truth.mean_duration_slots) /
                        truth.mean_duration_slots;
            err->asym += validate(counts).pair_asymmetry;
        }
    }
    EXPECT_LT(large.freq, small.freq);
    EXPECT_LT(large.dur, small.dur);
    EXPECT_LT(large.asym, small.asym);
}

// The design argument of §1/§5.2: the estimators' power is the paired-slot
// y-state bookkeeping, not the geometric timing.  Basic experiments started
// at exponential gaps of mean 1/p slots (Poisson starts), at the geometric
// design's budget, estimate F and D as well, averaged over seeds.
std::vector<Experiment> poisson_starts(Rng& rng, SlotIndex slots, double p) {
    std::vector<Experiment> experiments;
    for (double t = rng.exponential(1.0 / p); static_cast<SlotIndex>(t) + 2 <= slots;
         t += rng.exponential(1.0 / p)) {
        experiments.push_back({static_cast<SlotIndex>(t), ExperimentKind::basic});
    }
    return experiments;
}

class ProbeDesignStarts : public ::testing::TestWithParam<double> {};

TEST_P(ProbeDesignStarts, PoissonStartsEstimateLikeGeometricAtSameBudget) {
    const double p = GetParam();
    struct Tally {
        RunningStats freq;  // F̂ / F
        RunningStats dur;   // D̂ / D
        std::size_t experiments{0};
    };
    Tally geometric;
    Tally poisson;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Rng rng{seed + 314};
        const auto series = synth_congestion_series(rng, kSlots, 14.0, 1990.0);
        const auto truth = series_truth(series);
        ProbeProcessConfig pcfg;
        pcfg.p = p;
        const auto designs = {std::pair{design_probe_process(rng, kSlots, pcfg).experiments,
                                        &geometric},
                              std::pair{poisson_starts(rng, kSlots, p), &poisson}};
        for (const auto& [experiments, tally] : designs) {
            StateCounts counts;
            for (const auto& r :
                 observe_with_fidelity(experiments, series, FidelityModel{1.0, 1.0}, rng)) {
                counts.add(r);
            }
            const auto d = estimate_duration_basic(counts);
            ASSERT_TRUE(d.valid);
            tally->freq.add(estimate_frequency(counts).value / truth.frequency);
            tally->dur.add(d.slots / truth.mean_duration_slots);
            tally->experiments += experiments.size();
        }
    }
    const auto budget = static_cast<double>(geometric.experiments);
    EXPECT_NEAR(static_cast<double>(poisson.experiments), budget, 0.01 * budget);
    for (const Tally* t : {&geometric, &poisson}) {
        EXPECT_NEAR(t->freq.mean(), 1.0, 0.03);
        EXPECT_NEAR(t->dur.mean(), 1.0, 0.07);
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, ProbeDesignStarts, ::testing::Values(0.1, 0.3, 0.5),
                         [](const ::testing::TestParamInfo<double>& param_info) {
                             return "p" + param_token(param_info.param);
                         });

}  // namespace
}  // namespace bb::core

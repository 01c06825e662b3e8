#include "core/synthetic.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace bb::core {
namespace {

TEST(SyntheticSeries, LengthAndParameterValidation) {
    Rng rng{1};
    const auto s = synth_congestion_series(rng, 1000, 5.0, 50.0);
    EXPECT_EQ(s.size(), 1000u);
    EXPECT_THROW(synth_congestion_series(rng, 100, 0.5, 50.0), std::invalid_argument);
}

TEST(SyntheticSeries, FrequencyMatchesSojournMeans) {
    Rng rng{2};
    const auto s = synth_congestion_series(rng, 2'000'000, 10.0, 90.0);
    const auto t = series_truth(s);
    EXPECT_NEAR(t.frequency, 0.1, 0.01);
    EXPECT_NEAR(t.mean_duration_slots, 10.0, 0.5);
}

// Seed-pinned golden: the slots drawn for a fixed seed, and where the caller's
// Rng is left afterwards.  Callers draw their probe design from the same Rng
// right after the series, so both the series and the number of draws it
// consumes (including the truncated last sojourn) are part of the contract.
TEST(SyntheticSeries, GoldenSlotsAndCallerRngPosition) {
    struct Case {
        std::uint64_t seed;
        SlotIndex slots;
        double mean_on;
        double mean_off;
        const char* series;
        std::uint64_t next_draw;
    };
    const Case cases[] = {
        {2005, 64, 3.0, 5.0,
         "1000011110010011000000001110011111000001111111000000011111111000",
         0x5269b025a68a6d25ULL},
        {7, 40, 12.0, 48.0, "0000000000000000000000000000000000000000",
         0x1e0edcc1206967ceULL},
        {11, 0, 4.0, 4.0, "", 0xc5ff3ca60f508135ULL},
    };
    for (const Case& c : cases) {
        Rng rng{c.seed};
        const auto s = synth_congestion_series(rng, c.slots, c.mean_on, c.mean_off);
        std::string got;
        for (const bool b : s) got.push_back(b ? '1' : '0');
        EXPECT_EQ(got, c.series) << "seed " << c.seed;
        EXPECT_EQ(rng.next_u64(), c.next_draw) << "seed " << c.seed;
    }
}

TEST(SeriesTruth, HandCheckedSmallSeries) {
    // 0110 0111 -> two episodes of lengths 2 and 3; 5 congested of 8.
    const std::vector<bool> s{false, true, true, false, false, true, true, true};
    const auto t = series_truth(s);
    EXPECT_EQ(t.episodes, 2u);
    EXPECT_DOUBLE_EQ(t.frequency, 5.0 / 8.0);
    EXPECT_DOUBLE_EQ(t.mean_duration_slots, 2.5);
}

TEST(SeriesTruth, TrailingEpisodeCounted) {
    const std::vector<bool> s{true, true};
    const auto t = series_truth(s);
    EXPECT_EQ(t.episodes, 1u);
    EXPECT_DOUBLE_EQ(t.mean_duration_slots, 2.0);
}

TEST(SeriesTruth, AllClear) {
    const std::vector<bool> s{false, false, false};
    const auto t = series_truth(s);
    EXPECT_EQ(t.episodes, 0u);
    EXPECT_DOUBLE_EQ(t.frequency, 0.0);
}

TEST(ObserveWithFidelity, PerfectFidelityReproducesTruth) {
    Rng rng{3};
    const std::vector<bool> truth{false, true, true, false, true};
    std::vector<Experiment> exps{{0, ExperimentKind::basic},
                                 {1, ExperimentKind::basic},
                                 {2, ExperimentKind::extended}};
    const auto obs = observe_with_fidelity(exps, truth, FidelityModel{1.0, 1.0}, rng);
    ASSERT_EQ(obs.size(), 3u);
    EXPECT_EQ(obs[0].code, 0b01);
    EXPECT_EQ(obs[1].code, 0b11);
    EXPECT_EQ(obs[2].code, 0b101);  // slots 2,3,4 = 1,0,1
}

TEST(ObserveWithFidelity, ZeroFidelityCollapsesToZero) {
    Rng rng{4};
    const std::vector<bool> truth{true, true, true, true};
    std::vector<Experiment> exps{{0, ExperimentKind::basic}, {1, ExperimentKind::basic}};
    const auto obs = observe_with_fidelity(exps, truth, FidelityModel{0.0, 0.0}, rng);
    for (const auto& r : obs) EXPECT_EQ(r.code, 0u);
}

TEST(ObserveWithFidelity, AllClearExperimentsNeverFlip) {
    Rng rng{5};
    const std::vector<bool> truth(100, false);
    std::vector<Experiment> exps;
    for (SlotIndex i = 0; i + 2 < 100; i += 3) exps.push_back({i, ExperimentKind::extended});
    const auto obs = observe_with_fidelity(exps, truth, FidelityModel{0.0, 0.0}, rng);
    for (const auto& r : obs) EXPECT_EQ(r.code, 0u);
}

TEST(ObserveWithFidelity, FailureRateMatchesP1) {
    Rng rng{6};
    // Truth: congestion only at even slots so every basic experiment at an
    // even start sees exactly one congested slot (10).
    std::vector<bool> truth(100'000, false);
    for (std::size_t i = 0; i < truth.size(); i += 4) truth[i] = true;
    std::vector<Experiment> exps;
    for (SlotIndex i = 0; i + 1 < static_cast<SlotIndex>(truth.size()); i += 4) {
        exps.push_back({i, ExperimentKind::basic});
    }
    const auto obs = observe_with_fidelity(exps, truth, FidelityModel{0.7, 1.0}, rng);
    std::size_t kept = 0;
    for (const auto& r : obs) {
        if (r.code == 0b10) ++kept;
    }
    EXPECT_NEAR(static_cast<double>(kept) / static_cast<double>(obs.size()), 0.7, 0.02);
}

TEST(ObserveWithFidelity, OutOfRangeSlotsReadAsClear) {
    Rng rng{7};
    const std::vector<bool> truth{true};
    std::vector<Experiment> exps{{0, ExperimentKind::extended}};  // slots 1,2 out of range
    const auto obs = observe_with_fidelity(exps, truth, FidelityModel{1.0, 1.0}, rng);
    EXPECT_EQ(obs[0].code, 0b100);
}

}  // namespace
}  // namespace bb::core

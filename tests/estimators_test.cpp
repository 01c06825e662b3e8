#include "core/estimators.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/types.h"

namespace bb::core {
namespace {

ExperimentResult basic(std::uint8_t code) { return {ExperimentKind::basic, code}; }
ExperimentResult extended(std::uint8_t code) { return {ExperimentKind::extended, code}; }

TEST(StateCounts, TalliesAndDerivedQuantities) {
    StateCounts c;
    c.add(basic(0b00));
    c.add(basic(0b01));
    c.add(basic(0b10));
    c.add(basic(0b11));
    c.add(basic(0b11));
    c.add(extended(0b011));
    c.add(extended(0b110));
    c.add(extended(0b001));
    EXPECT_EQ(c.basic_total(), 5u);
    EXPECT_EQ(c.extended_total(), 3u);
    EXPECT_EQ(c.R(), 4u);  // 01 + 10 + 2x11
    EXPECT_EQ(c.S(), 2u);
    EXPECT_EQ(c.U(), 2u);
    EXPECT_EQ(c.V(), 1u);
}

TEST(StateCounts, Accumulate) {
    StateCounts a;
    a.add(basic(0b01));
    StateCounts b;
    b.add(basic(0b01));
    b.add(extended(0b111));
    a += b;
    EXPECT_EQ(a.basic[0b01], 2u);
    EXPECT_EQ(a.extended[0b111], 1u);
}

TEST(Codes, EncodingMatchesPaperConvention) {
    // y = 10: first probe congested, second not.
    EXPECT_EQ(basic_code(true, false), 0b10);
    EXPECT_EQ(basic_code(false, true), 0b01);
    // y = 001: congestion only at the third slot.
    EXPECT_EQ(extended_code(false, false, true), 0b001);
    EXPECT_EQ(extended_code(true, true, false), 0b110);
}

TEST(Frequency, IsFractionOfLeadingOnes) {
    StateCounts c;
    c.add(basic(0b00));
    c.add(basic(0b00));
    c.add(basic(0b10));
    c.add(basic(0b11));
    const auto f = estimate_frequency(c);
    EXPECT_TRUE(f.valid());
    EXPECT_DOUBLE_EQ(f.value, 0.5);
    EXPECT_EQ(f.samples, 4u);
}

TEST(Frequency, ExtendedExperimentsOptIn) {
    StateCounts c;
    c.add(basic(0b00));
    c.add(extended(0b100));
    EstimatorOptions with_ext;
    with_ext.frequency_from_extended = true;
    EXPECT_DOUBLE_EQ(estimate_frequency(c, with_ext).value, 0.5);
    EstimatorOptions basic_only;
    basic_only.frequency_from_extended = false;
    EXPECT_DOUBLE_EQ(estimate_frequency(c, basic_only).value, 0.0);
}

TEST(Frequency, EmptyIsInvalid) {
    const auto f = estimate_frequency(StateCounts{});
    EXPECT_FALSE(f.valid());
    EXPECT_DOUBLE_EQ(f.value, 0.0);
}

TEST(DurationBasic, PaperFormula) {
    // R/S = 3 -> D = 2*(3-1)+1 = 5 slots.
    StateCounts c;
    c.basic[0b01] = 10;
    c.basic[0b10] = 10;
    c.basic[0b11] = 40;  // R = 60, S = 20
    const auto d = estimate_duration_basic(c);
    ASSERT_TRUE(d.valid);
    EXPECT_DOUBLE_EQ(d.slots, 5.0);
    EXPECT_EQ(d.R, 60u);
    EXPECT_EQ(d.S, 20u);
    EXPECT_DOUBLE_EQ(d.seconds(milliseconds(5)), 0.025);
}

TEST(DurationBasic, OneSlotEpisodesGiveDurationOne) {
    // Only transitions, no 11 states: R == S -> D = 1 slot.
    StateCounts c;
    c.basic[0b01] = 7;
    c.basic[0b10] = 7;
    const auto d = estimate_duration_basic(c);
    ASSERT_TRUE(d.valid);
    EXPECT_DOUBLE_EQ(d.slots, 1.0);
}

TEST(DurationBasic, NoTransitionsIsInvalid) {
    StateCounts c;
    c.basic[0b00] = 100;
    c.basic[0b11] = 5;  // congestion seen but never a boundary
    const auto d = estimate_duration_basic(c);
    EXPECT_FALSE(d.valid);
}

TEST(DurationImproved, CorrectsWithRHat) {
    // With r = p2/p1 = 0.5, the 11 states are under-reported by half;
    // U/V should estimate r and inflate the duration back.
    StateCounts c;
    c.basic[0b01] = 10;
    c.basic[0b10] = 10;
    c.basic[0b11] = 20;  // suppressed from a "true" 40 by p2/p1 = 0.5
    c.extended[0b011] = 5;
    c.extended[0b110] = 5;   // U = 10
    c.extended[0b001] = 10;
    c.extended[0b100] = 10;  // V = 20 -> r_hat = 0.5
    const auto d = estimate_duration_improved(c);
    ASSERT_TRUE(d.valid);
    ASSERT_TRUE(d.r_hat.has_value());
    EXPECT_DOUBLE_EQ(*d.r_hat, 0.5);
    // R/S = 40/20 = 2; D = (2V/U)(R/S - 1) + 1 = 4*1 + 1 = 5.
    EXPECT_DOUBLE_EQ(d.slots, 5.0);
}

TEST(DurationImproved, MatchesBasicWhenREqualsOne) {
    StateCounts c;
    c.basic[0b01] = 10;
    c.basic[0b10] = 10;
    c.basic[0b11] = 40;
    c.extended[0b011] = 8;
    c.extended[0b110] = 8;
    c.extended[0b001] = 8;
    c.extended[0b100] = 8;
    const auto basic_d = estimate_duration_basic(c);
    const auto improved_d = estimate_duration_improved(c);
    ASSERT_TRUE(improved_d.valid);
    EXPECT_DOUBLE_EQ(improved_d.slots, basic_d.slots);
}

TEST(DurationImproved, NoExtendedDataIsInvalid) {
    StateCounts c;
    c.basic[0b01] = 10;
    c.basic[0b10] = 10;
    c.basic[0b11] = 40;
    EXPECT_FALSE(estimate_duration_improved(c).valid);
}

TEST(DurationOptions, PairsFromExtendedFoldLeadingDigits) {
    StateCounts c;
    c.extended[0b110] = 4;  // leading pair 11 -> R
    c.extended[0b100] = 4;  // leading pair 10 -> R and S
    EstimatorOptions opts;
    opts.pairs_from_extended = true;
    const auto d = estimate_duration_basic(c, opts);
    ASSERT_TRUE(d.valid);
    EXPECT_EQ(d.R, 8u);
    EXPECT_EQ(d.S, 4u);
    // R/S = 2 -> D = 3 slots.
    EXPECT_DOUBLE_EQ(d.slots, 3.0);
}

// Edge cases feeding the multi-replica aggregation layer: a replica with no
// usable experiments must yield invalid-but-finite estimates, never NaN.
TEST(Frequency, ZeroExperimentsIsInvalidAndFinite) {
    const StateCounts empty;
    const auto f = estimate_frequency(empty);
    EXPECT_FALSE(f.valid());
    EXPECT_EQ(f.samples, 0u);
    EXPECT_TRUE(std::isfinite(f.value));
    EXPECT_DOUBLE_EQ(f.value, 0.0);
}

TEST(Frequency, OnlyExtendedWithOptOutIsInvalid) {
    StateCounts c;
    c.add(extended(0b100));
    EstimatorOptions basic_only;
    basic_only.frequency_from_extended = false;
    const auto f = estimate_frequency(c, basic_only);
    EXPECT_FALSE(f.valid());
    EXPECT_TRUE(std::isfinite(f.value));
}

TEST(DurationBasic, ZeroExperimentsIsInvalidAndFinite) {
    const auto d = estimate_duration_basic(StateCounts{});
    EXPECT_FALSE(d.valid);
    EXPECT_TRUE(std::isfinite(d.slots));
    EXPECT_TRUE(std::isfinite(d.seconds(milliseconds(5))));
}

TEST(DurationBasic, SZeroNeverProducesNaN) {
    // S = 0 with congestion present (only 11 reports): the R/S ratio is
    // undefined; the estimate must be flagged invalid with finite fields.
    StateCounts c;
    c.basic[0b11] = 50;
    const auto d = estimate_duration_basic(c);
    EXPECT_FALSE(d.valid);
    EXPECT_EQ(d.S, 0u);
    EXPECT_TRUE(std::isfinite(d.slots));
    EXPECT_TRUE(std::isfinite(d.seconds(milliseconds(5))));
    EXPECT_DOUBLE_EQ(d.seconds(milliseconds(5)), 0.0);
}

TEST(DurationImproved, SZeroOrUZeroNeverProducesNaN) {
    StateCounts c;
    c.basic[0b11] = 10;          // S = 0
    c.extended[0b001] = 4;       // V > 0, U = 0
    const auto d = estimate_duration_improved(c);
    EXPECT_FALSE(d.valid);
    EXPECT_TRUE(std::isfinite(d.slots));
}

TEST(StdDevGuidance, MatchesFormula) {
    // StdDev = 1/sqrt(p N L); paper example: L = 0.001 per 5 ms slot.
    EXPECT_NEAR(duration_stddev_guidance(0.1, 180'000, 0.001), 1.0 / std::sqrt(18.0), 1e-12);
    EXPECT_DOUBLE_EQ(duration_stddev_guidance(0.1, 0, 0.001), 0.0);
}

TEST(Accumulator, StreamsToSameAnswer) {
    // Reports folded one at a time into the tally give the estimates of the
    // whole sequence: D̂ = 2(R/S - 1) + 1 = 5 and F̂ = 50/60.
    StateCounts acc;
    for (int i = 0; i < 10; ++i) acc.add(basic(0b01));
    for (int i = 0; i < 10; ++i) acc.add(basic(0b10));
    for (int i = 0; i < 40; ++i) acc.add(basic(0b11));
    EXPECT_DOUBLE_EQ(estimate_duration_basic(acc).slots, 5.0);
    EXPECT_DOUBLE_EQ(estimate_frequency(acc).value, 50.0 / 60.0);
}

}  // namespace
}  // namespace bb::core

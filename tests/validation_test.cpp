#include "core/validation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/streaming.h"

namespace bb::core {
namespace {

TEST(Validation, EmptyCountsAreTriviallyAcceptable) {
    const auto rep = validate(StateCounts{});
    EXPECT_DOUBLE_EQ(rep.pair_asymmetry, 0.0);
    EXPECT_EQ(rep.transitions, 0u);
    EXPECT_TRUE(rep.acceptable());
}

TEST(Validation, SymmetricTransitionsPass) {
    StateCounts c;
    c.basic[0b01] = 100;
    c.basic[0b10] = 104;
    c.basic[0b00] = 1000;
    const auto rep = validate(c);
    EXPECT_NEAR(rep.pair_asymmetry, 4.0 / 204.0, 1e-12);
    EXPECT_EQ(rep.transitions, 204u);
    EXPECT_TRUE(rep.acceptable(0.25));
}

TEST(Validation, AsymmetricTransitionsFail) {
    StateCounts c;
    c.basic[0b01] = 100;
    c.basic[0b10] = 10;
    const auto rep = validate(c);
    EXPECT_NEAR(rep.pair_asymmetry, 90.0 / 110.0, 1e-12);
    EXPECT_FALSE(rep.acceptable(0.25));
}

TEST(Validation, ViolationsCounted) {
    StateCounts c;
    c.extended[0b010] = 3;
    c.extended[0b101] = 2;
    c.extended[0b000] = 95;
    const auto rep = validate(c);
    EXPECT_EQ(rep.violations, 5u);
    EXPECT_NEAR(rep.violation_fraction, 0.05, 1e-12);
    EXPECT_TRUE(rep.acceptable(0.25, 0.05));
    EXPECT_FALSE(rep.acceptable(0.25, 0.04));
}

TEST(Validation, ExtendedPairAsymmetry) {
    StateCounts c;
    c.extended[0b011] = 10;
    c.extended[0b110] = 30;
    c.extended[0b000] = 100;
    const auto rep = validate(c);
    EXPECT_NEAR(rep.ext_pair_asymmetry, 0.5, 1e-12);
}

TEST(Validation, SingleRateSpreadComparesBasicAndExtended) {
    StateCounts c;
    c.basic[0b01] = 10;
    c.basic[0b10] = 10;
    c.basic[0b00] = 80;  // rates 0.1 each
    c.extended[0b001] = 10;
    c.extended[0b100] = 10;
    c.extended[0b000] = 80;  // rates 0.1 each
    const auto rep = validate(c);
    EXPECT_NEAR(rep.single_rate_spread, 0.0, 1e-12);
}

TEST(StoppingRule, KeepsGoingUntilEnoughTransitions) {
    StoppingRule rule{{.min_transitions = 50, .tolerance = 0.2, .violation_tolerance = 0.05}};
    StateCounts c;
    c.basic[0b01] = 10;
    c.basic[0b10] = 10;
    EXPECT_EQ(rule.evaluate(c), StoppingRule::Decision::keep_going);
}

TEST(StoppingRule, StopsValidWhenSymmetric) {
    StoppingRule rule{{.min_transitions = 50, .tolerance = 0.2, .violation_tolerance = 0.05}};
    StateCounts c;
    c.basic[0b01] = 100;
    c.basic[0b10] = 95;
    EXPECT_EQ(rule.evaluate(c), StoppingRule::Decision::stop_valid);
}

TEST(StoppingRule, StopsInvalidOnViolations) {
    StoppingRule rule{{.min_transitions = 50, .tolerance = 0.2, .violation_tolerance = 0.05}};
    StateCounts c;
    c.basic[0b01] = 100;
    c.basic[0b10] = 95;
    c.extended[0b010] = 20;
    c.extended[0b000] = 80;
    EXPECT_EQ(rule.evaluate(c), StoppingRule::Decision::stop_invalid);
}

TEST(Validation, AllZeroReportsAreAcceptableWithoutDividing) {
    // A run where every experiment reported 00/000: all denominators
    // (transitions, extended totals, rate means) are zero and must be
    // guarded, not divided by.
    StateCounts c;
    c.basic[0b00] = 10'000;
    c.extended[0b000] = 10'000;
    const auto rep = validate(c);
    EXPECT_EQ(rep.transitions, 0u);
    EXPECT_DOUBLE_EQ(rep.pair_asymmetry, 0.0);
    EXPECT_DOUBLE_EQ(rep.ext_pair_asymmetry, 0.0);
    EXPECT_DOUBLE_EQ(rep.single_rate_spread, 0.0);
    EXPECT_EQ(rep.violations, 0u);
    EXPECT_DOUBLE_EQ(rep.violation_fraction, 0.0);
    EXPECT_TRUE(rep.acceptable());
}

TEST(Validation, SingleExperimentOfEachCodeIsFinite) {
    // One lone report must never produce a NaN/inf in any ratio.
    for (std::uint8_t code = 0; code < 4; ++code) {
        StateCounts c;
        c.add({ExperimentKind::basic, code});
        const auto rep = validate(c);
        EXPECT_TRUE(std::isfinite(rep.pair_asymmetry)) << int(code);
        EXPECT_TRUE(std::isfinite(rep.violation_fraction)) << int(code);
    }
    for (std::uint8_t code = 0; code < 8; ++code) {
        StateCounts c;
        c.add({ExperimentKind::extended, code});
        const auto rep = validate(c);
        EXPECT_TRUE(std::isfinite(rep.single_rate_spread)) << int(code);
        EXPECT_TRUE(std::isfinite(rep.ext_pair_asymmetry)) << int(code);
        EXPECT_TRUE(std::isfinite(rep.violation_fraction)) << int(code);
    }
}

TEST(Validation, StreamingAnalyzerMatchesOnEdgeCases) {
    // The analyzer's validation must agree exactly with validate() on the
    // same degenerate inputs (empty, all-zeros, single report).
    {
        const StreamingAnalyzer empty;
        const auto batch = validate(StateCounts{});
        EXPECT_EQ(empty.finalize().validation.pair_asymmetry, batch.pair_asymmetry);
        EXPECT_EQ(empty.finalize().validation.transitions, batch.transitions);
    }
    {
        StreamingAnalyzer online;
        StateCounts counts;
        for (int i = 0; i < 100; ++i) {
            const ExperimentResult r{ExperimentKind::extended, 0b000};
            online.consume(r);
            counts.add(r);
        }
        EXPECT_EQ(online.finalize().validation.violation_fraction,
                  validate(counts).violation_fraction);
    }
    {
        StreamingAnalyzer online;
        online.consume({ExperimentKind::basic, 0b01});
        StateCounts counts;
        counts.add({ExperimentKind::basic, 0b01});
        EXPECT_EQ(online.finalize().validation.pair_asymmetry, validate(counts).pair_asymmetry);
        EXPECT_EQ(StoppingRule{}.evaluate(online.counts()), StoppingRule{}.evaluate(counts));
    }
}

TEST(StoppingRule, KeepsGoingWhenAsymmetric) {
    StoppingRule rule{{.min_transitions = 50, .tolerance = 0.1, .violation_tolerance = 0.05}};
    StateCounts c;
    c.basic[0b01] = 100;
    c.basic[0b10] = 50;
    EXPECT_EQ(rule.evaluate(c), StoppingRule::Decision::keep_going);
}

}  // namespace
}  // namespace bb::core

#include "util/stats.h"

#include <gtest/gtest.h>

namespace bb {
namespace {

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
    RunningStats s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance with n-1 denominator: sum sq dev = 32, /7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, HandlesNegativeValues) {
    RunningStats s;
    s.add(-3.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Quantile, EdgeCases) {
    EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(quantile({7.0}, 0.5), 7.0);
    EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0}, 1.0), 3.0);
}

TEST(Quantile, MedianAndInterpolation) {
    EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
    // Quartile of {10,20,30,40}: position 0.25*3 = 0.75 -> 10 + 0.75*10.
    EXPECT_DOUBLE_EQ(quantile({10.0, 20.0, 30.0, 40.0}, 0.25), 17.5);
}

TEST(Quantile, UnsortedInputIsHandled) {
    EXPECT_DOUBLE_EQ(quantile({9.0, 1.0, 5.0, 3.0, 7.0}, 0.5), 5.0);
}

}  // namespace
}  // namespace bb

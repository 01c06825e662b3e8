#include "util/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "util/stats.h"

namespace bb {
namespace {

TEST(Rng, DeterministicForSameSeed) {
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a{1};
    Rng b{2};
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, ForkedStreamsAreIndependentOfSiblingOrder) {
    Rng parent1{7};
    Rng parent2{7};
    Rng c1 = parent1.fork(1);
    Rng c2 = parent2.fork(1);
    EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

// Positional replica seeding leans on this: fork() consumes exactly one
// parent draw, so the k-th fork (in call order) is a pure function of
// (seed, k, salt) — and callers must fork in index order.
TEST(Rng, ForkAdvancesParentByExactlyOneDraw) {
    Rng forked{7};
    Rng reference{7};
    (void)forked.fork(3);
    (void)reference.next_u64();  // consume the draw fork() used
    for (int i = 0; i < 16; ++i) EXPECT_EQ(forked.next_u64(), reference.next_u64());
}

TEST(Rng, ForkSeedMatchesForkAndAdvancesIdentically) {
    Rng a{7};
    Rng b{7};
    const std::uint64_t seed = a.fork_seed(5);
    Rng child_from_seed{seed};
    Rng child_from_fork = b.fork(5);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(child_from_seed.next_u64(), child_from_fork.next_u64());
    }
    // Both parents advanced the same way.
    EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkedSiblingsWithAdjacentSaltsShareNoEarlyOutputs) {
    // Siblings forked with salts 0..7 (the replica-index pattern): no value
    // may repeat within or across their first-k outputs.
    constexpr int kSiblings = 8;
    constexpr int kDraws = 256;
    Rng parent{7};
    std::set<std::uint64_t> seen;
    for (int s = 0; s < kSiblings; ++s) {
        Rng child = parent.fork(static_cast<std::uint64_t>(s));
        for (int i = 0; i < kDraws; ++i) {
            ASSERT_TRUE(seen.insert(child.next_u64()).second)
                << "duplicate output, sibling " << s << " draw " << i;
        }
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kSiblings * kDraws));
}

TEST(Rng, ForkedChildPassesUniformitySmokeCheck) {
    Rng parent{7};
    Rng child = parent.fork(1);
    constexpr int kDraws = 50'000;
    constexpr int kBins = 10;
    std::array<int, kBins> bins{};
    RunningStats s;
    for (int i = 0; i < kDraws; ++i) {
        const double u = child.uniform01();
        s.add(u);
        ++bins[static_cast<std::size_t>(u * kBins)];
    }
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.stddev(), 1.0 / std::sqrt(12.0), 0.01);
    for (int b = 0; b < kBins; ++b) {
        // Each decile should hold ~5000 draws; +/-8% is > 11 sigma.
        EXPECT_NEAR(bins[b], kDraws / kBins, kDraws / kBins * 0.08) << "bin " << b;
    }
}

TEST(Rng, Uniform01Bounds) {
    Rng r{3};
    for (int i = 0; i < 10'000; ++i) {
        const double u = r.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BernoulliMatchesProbability) {
    Rng r{11};
    int hits = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i) {
        if (r.bernoulli(0.3)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanIsCorrect) {
    Rng r{5};
    RunningStats s;
    for (int i = 0; i < 100'000; ++i) s.add(r.exponential(10.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.2);
    // Exponential: stddev == mean.
    EXPECT_NEAR(s.stddev(), 10.0, 0.3);
}

TEST(Rng, ExponentialTimeOverloadRespectsMean) {
    Rng r{6};
    RunningStats s;
    for (int i = 0; i < 50'000; ++i) s.add(r.exponential(seconds_i(10)).to_seconds());
    EXPECT_NEAR(s.mean(), 10.0, 0.3);
}

TEST(Rng, ParetoRespectsMinimumAndMean) {
    Rng r{9};
    RunningStats s;
    const double alpha = 2.5;  // finite mean & variance for a stable test
    const double xm = 1000.0;
    for (int i = 0; i < 200'000; ++i) {
        const double v = r.pareto(alpha, xm);
        ASSERT_GE(v, xm);
        s.add(v);
    }
    // E[X] = alpha*xm/(alpha-1)
    EXPECT_NEAR(s.mean(), alpha * xm / (alpha - 1.0), 40.0);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
    Rng r{13};
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10'000; ++i) {
        const auto v = r.uniform_int(2, 4);
        ASSERT_GE(v, 2);
        ASSERT_LE(v, 4);
        saw_lo = saw_lo || v == 2;
        saw_hi = saw_hi || v == 4;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
    Rng r{17};
    RunningStats s;
    for (int i = 0; i < 100'000; ++i) s.add(r.normal(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

// --- bit identity with the standard library ---------------------------------
//
// Rng implements its engine and its uniform/exponential draws itself; these
// tests hold them to std::mt19937_64 and the libstdc++ distributions bit for
// bit, so no seed-pinned golden can move when the implementation does.

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// A URBG that yields one fixed value: feeds generate_canonical a chosen word.
struct FixedUrbg {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }
    result_type operator()() const { return value; }
    std::uint64_t value;
};

constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;

TEST(RngBits, ConversionMatchesBuiltinOnEdgeValues) {
    // 0xFFFFFFFFFFFFFC00 is the first value that rounds to 2^64, where the
    // unit-interval clamp fires; the one before it is the last that stays
    // below 1 unclamped.
    const std::uint64_t edges[] = {0,
                                   1,
                                   kTwo53 - 1,
                                   kTwo53,
                                   kTwo53 + 1,
                                   kTwo63 - 1,
                                   kTwo63,
                                   kTwo63 + 1,
                                   0xFFFFFFFFFFFFFBFFULL,
                                   0xFFFFFFFFFFFFFC00ULL,
                                   ~std::uint64_t{0}};
    for (const std::uint64_t x : edges) {
        EXPECT_EQ(bits(u64_to_double(x)), bits(static_cast<double>(x))) << std::hex << x;
        FixedUrbg g{x};
        EXPECT_EQ(bits(unit_interval(x)), bits(std::generate_canonical<double, 53>(g)))
            << std::hex << x;
    }
    const double below_one = std::nextafter(1.0, 0.0);
    EXPECT_EQ(unit_interval(0xFFFFFFFFFFFFFBFFULL), below_one);  // rounds, no clamp
    EXPECT_EQ(u64_to_double(0xFFFFFFFFFFFFFC00ULL), 0x1p64);     // rounds up to 2^64 ...
    EXPECT_EQ(unit_interval(0xFFFFFFFFFFFFFC00ULL), below_one);  // ... so the clamp fires
    EXPECT_EQ(unit_interval(~std::uint64_t{0}), below_one);
    EXPECT_EQ(unit_interval(0), 0.0);
}

TEST(RngBits, ConversionMatchesBuiltinOnRandomValues) {
    // Every magnitude: shifting a raw word right by 0..63 bits walks the
    // leading one through every position, so each rounding regime is hit.
    std::mt19937_64 src{0xC0FFEE};
    for (int i = 0; i < 10'000'000; ++i) {
        const std::uint64_t x = src() >> (i & 63);
        ASSERT_EQ(bits(u64_to_double(x)), bits(static_cast<double>(x))) << std::hex << x;
    }
}

TEST(RngBits, EngineMatchesStdMt19937_64) {
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489}, std::uint64_t{20051021},
          ~std::uint64_t{0}}) {
        detail::Mt19937_64 ours{seed};
        std::mt19937_64 ref{seed};
        for (int i = 0; i < 2'000'000; ++i) {
            ASSERT_EQ(ours(), ref()) << "seed " << seed << " draw " << i;
        }
    }
}

// Every Rng method against std::mt19937_64 plus the matching std::
// distribution, interleaved so each method starts wherever the previous one
// left the engine.  Each round makes at least 9 raw draws.
TEST(RngBits, EveryMethodMatchesStdOracle) {
    constexpr int kRounds = 300'000;
    for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{2005},
                                     std::uint64_t{0xBADA0}, std::uint64_t{1} << 40}) {
        Rng ours{seed};
        std::mt19937_64 ref{seed};
        std::uniform_real_distribution<double> unit{0.0, 1.0};
        for (int i = 0; i < kRounds; ++i) {
            const double p = static_cast<double>(i % 101) / 100.0;
            const double mean = 0.001 + static_cast<double>(i % 37);
            const double alpha = 0.5 + static_cast<double>(i % 7) * 0.4;
            const std::int64_t lo = -(i % 13);
            const std::int64_t hi = lo + (i % 1000);
            const std::uint64_t salt = static_cast<std::uint64_t>(i);

            ASSERT_EQ(bits(ours.uniform01()), bits(unit(ref))) << "uniform01, round " << i;
            ASSERT_EQ(ours.bernoulli(p), std::bernoulli_distribution{p}(ref))
                << "bernoulli, round " << i;
            ASSERT_EQ(bits(ours.exponential(mean)),
                      bits(std::exponential_distribution<double>{1.0 / mean}(ref)))
                << "exponential, round " << i;
            const double u = 1.0 - unit(ref);
            ASSERT_EQ(bits(ours.pareto(alpha, 1000.0)), bits(1000.0 / std::pow(u, 1.0 / alpha)))
                << "pareto, round " << i;
            ASSERT_EQ(bits(ours.normal(5.0, 2.0)),
                      bits(std::normal_distribution<double>{5.0, 2.0}(ref)))
                << "normal, round " << i;
            std::uniform_int_distribution<std::int64_t> ints{lo, hi};
            ASSERT_EQ(ours.uniform_int(lo, hi), ints(ref))
                << "uniform_int, round " << i;
            ASSERT_EQ(ours.fork_seed(salt), ref() ^ (salt * 0x9e3779b97f4a7c15ULL))
                << "fork_seed, round " << i;
            ASSERT_EQ(ours.next_u64(), ref()) << "next_u64, round " << i;
        }
    }
}

// A precomputed threshold must answer `unit_interval(x) < p` for every word:
// at the boundary words T - 1 and T, where the answer flips, and over a
// million random words per p.  The p list holds the smallest positive
// double worth naming, the paper's grid, the largest double below 1, 1
// itself, and values unit_interval produces, where `u < p` is false for the
// very word that maps to p.
TEST(RngBits, BernoulliThresholdMatchesUnitIntervalCompare) {
    std::mt19937_64 src{0x7E57};
    std::vector<double> ps{1e-300, 0.1, 0.3, 0.5, 0.7, 0.9, std::nextafter(1.0, 0.0), 1.0,
                           unit_interval(1), unit_interval(kTwo53 + 1), unit_interval(kTwo63),
                           unit_interval(0xFFFFFFFFFFFFFBFFULL)};
    for (int i = 0; i < 4; ++i) ps.push_back(unit_interval(src()));
    for (const double p : ps) {
        SCOPED_TRACE(testing::Message() << std::hexfloat << p);
        const BernoulliThreshold t{p};
        ASSERT_EQ(t.always(), p >= 1.0);
        if (!t.always()) {
            const std::uint64_t below = t.below();
            ASSERT_GT(below, 0U);
            EXPECT_TRUE(t(below - 1));
            EXPECT_TRUE(unit_interval(below - 1) < p);
            EXPECT_FALSE(t(below));
            EXPECT_FALSE(unit_interval(below) < p);
        }
        EXPECT_EQ(t(~std::uint64_t{0}), unit_interval(~std::uint64_t{0}) < p);
        for (int i = 0; i < 1'000'000; ++i) {
            const std::uint64_t x = src();
            ASSERT_EQ(t(x), unit_interval(x) < p) << std::hex << x;
        }
    }
    // No word passes a NaN, zero or negative p; every word passes p > 1.
    for (const double never : {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.5}) {
        const BernoulliThreshold t{never};
        EXPECT_FALSE(t.always());
        EXPECT_EQ(t.below(), 0U);
        EXPECT_FALSE(t(0));
    }
    EXPECT_TRUE(BernoulliThreshold{1.5}.always());
}

// The boundary alone pins the threshold (unit_interval is monotone): over
// p of every magnitude, word T - 1 passes and word T fails.  Powers of two
// and their neighbours are where the gap below p × 2^64 halves and where
// the midpoint word ties.
TEST(RngBits, BernoulliThresholdBoundaryHoldsAcrossMagnitudes) {
    std::mt19937_64 src{0xB0DA};
    std::vector<double> ps;
    for (int i = 0; i < 200'000; ++i) {
        ps.push_back(i % 2 == 0 ? unit_interval(src() >> (i % 64))
                                : std::ldexp(unit_interval(src()), -(i % 1000)));
    }
    for (int k = 1; k <= 1074; ++k) {
        const double p = std::ldexp(1.0, -k);
        ps.insert(ps.end(), {p, std::nextafter(p, 0.0), std::nextafter(p, 1.0)});
    }
    for (const double p : ps) {
        if (!(p > 0.0)) continue;
        const BernoulliThreshold t{p};
        ASSERT_FALSE(t.always()) << std::hexfloat << p;
        ASSERT_GT(t.below(), 0U) << std::hexfloat << p;
        ASSERT_LT(unit_interval(t.below() - 1), p) << std::hexfloat << p;
        ASSERT_GE(unit_interval(t.below()), p) << std::hexfloat << p;
    }
}

// Rng::bernoulli(threshold) takes the one word bernoulli(p) takes.
TEST(RngBits, ThresholdBernoulliDrawsLikeDoubleBernoulli) {
    for (const double p : {0.05, 0.3, 0.5, 0.95, 1.0}) {
        const BernoulliThreshold t{p};
        Rng a{99};
        Rng b{99};
        for (int i = 0; i < 100'000; ++i) ASSERT_EQ(a.bernoulli(t), b.bernoulli(p)) << i;
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

// The first draws of every method from one seed, as literals: a toolchain
// or engine change that moves any of them fails here first, before it moves
// a golden.
TEST(RngBits, FirstDrawsArePinned) {
    constexpr std::uint64_t kSeed = 2005;
    {
        Rng r{kSeed};
        EXPECT_EQ(r.next_u64(), 0x3f95540812128a64ULL);
        EXPECT_EQ(r.next_u64(), 0x2889d2b27aaeb4b5ULL);
        EXPECT_EQ(r.next_u64(), 0x810899ccb8d5a220ULL);
    }
    {
        Rng r{kSeed};
        EXPECT_EQ(r.fork_seed(5), 0x288034976e66e60dULL);
        EXPECT_EQ(r.fork_seed(5), 0x3f9cb22d06dad8dcULL);
    }
    {
        Rng r{kSeed};
        EXPECT_EQ(r.uniform01(), 0x1.fcaaa04090945p-3);
        EXPECT_EQ(r.uniform01(), 0x1.444e9593d575ap-3);
        EXPECT_EQ(r.uniform01(), 0x1.0211339971ab4p-1);
    }
    {
        Rng r{kSeed};
        EXPECT_EQ(r.uniform(2.0, 3.0), 0x1.1fcaaa0409094p+1);
        EXPECT_EQ(r.uniform(2.0, 3.0), 0x1.1444e9593d576p+1);
    }
    {
        Rng r{kSeed};
        std::string draws;
        for (int i = 0; i < 16; ++i) draws += r.bernoulli(0.3) ? '1' : '0';
        EXPECT_EQ(draws, "1100111000000000");
    }
    {
        Rng r{kSeed};
        EXPECT_EQ(r.exponential(10.0), 0x1.6d75497c4598p+1);
        EXPECT_EQ(r.exponential(10.0), 0x1.b95487aec0271p+0);
    }
    {
        Rng r{kSeed};
        EXPECT_EQ(r.exponential(milliseconds(10)).ns(), 2'855'142);
        EXPECT_EQ(r.exponential(milliseconds(10)).ns(), 1'723'946);
    }
    {
        Rng r{kSeed};
        EXPECT_EQ(r.pareto(1.2, 12000.0), 0x1.dbbb5f5efda66p+13);
        EXPECT_EQ(r.pareto(1.2, 12000.0), 0x1.b0ef6d1e25f75p+13);
    }
    {
        Rng r{kSeed};
        EXPECT_EQ(r.normal(5.0, 2.0), 0x1.d8fa2cfafcc4ep+1);
        EXPECT_EQ(r.normal(5.0, 2.0), 0x1.1801005e266cep+3);
    }
    {
        Rng r{kSeed};
        EXPECT_EQ(r.uniform_int(0, 1000), 248);
        EXPECT_EQ(r.uniform_int(0, 1000), 158);
        EXPECT_EQ(r.uniform_int(0, 1000), 504);
    }
}

}  // namespace
}  // namespace bb

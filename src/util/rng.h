// Seeded random number generation for the simulator and probe processes.
//
// Rng owns its engine and the draws the paper's experiments make most: an
// MT19937-64 whose output equals std::mt19937_64's for the same seed, and
// inline uniform / Bernoulli / exponential / Pareto draws whose results equal
// std::uniform_real_distribution's and std::exponential_distribution's bit
// for bit.  normal() and uniform_int() still run the std:: distributions over
// the same engine.  Each component of an experiment owns its own Rng (usually
// derived from a master seed), so reordering components does not perturb the
// random streams of the others.
#ifndef BB_UTIL_RNG_H
#define BB_UTIL_RNG_H

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

#include "util/det.h"
#include "util/time.h"

namespace bb {

namespace detail {

// MT19937-64 (Matsumoto & Nishimura 2000) with std::mt19937_64's seeding, so
// both produce the same sequence for the same seed.  The refill applies the
// twist matrix without a branch ((0 - (y & 1)) & kA): libstdc++ branches on
// the low bit of every word, and half of those branches mispredict.
class Mt19937_64 {
public:
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt19937_64(std::uint64_t seed) noexcept {
        x_[0] = seed;
        for (std::size_t i = 1; i < kN; ++i) {
            x_[i] = kSeedMul * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
        }
    }

    result_type operator()() noexcept {
        if (i_ >= kN) [[unlikely]] refill();
        std::uint64_t z = x_[i_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;
    static constexpr std::uint64_t kSeedMul = 6364136223846793005ULL;
    static constexpr std::uint64_t kA = 0xb5026f5aa96619e9ULL;
    static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;

    static std::uint64_t twist(std::uint64_t hi, std::uint64_t lo, std::uint64_t far) noexcept {
        const std::uint64_t y = (hi & kUpper) | (lo & ~kUpper);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
    }

    // Out of line: it runs once per kN draws, and inlined it would bloat
    // every draw site.
    [[gnu::noinline]] void refill() noexcept {
        std::size_t k = 0;
        for (; k < kN - kM; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
        for (; k < kN - 1; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
        x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
        i_ = 0;
    }

    std::size_t i_{kN};  // ahead of the state: the word every draw reads first
    std::array<std::uint64_t, kN> x_;
};

}  // namespace detail

// double(x), rounded to nearest like the built-in conversion, without the
// branch on the top bit that GCC emits for an unsigned 64-bit source: both
// halves convert exactly, so the one rounding is in the final add.
[[nodiscard]] constexpr double u64_to_double(std::uint64_t x) noexcept {
    return static_cast<double>(static_cast<std::int64_t>(x >> 32)) * 0x1p32 +
           static_cast<double>(static_cast<std::int64_t>(x & 0xffffffffULL));
}

// A raw 64-bit draw mapped to [0, 1) exactly as libstdc++'s
// generate_canonical<double, 53> maps it: double(x) / 2^64, and the values
// that round up to 1 clamp to the largest double below 1.
[[nodiscard]] constexpr double unit_interval(std::uint64_t x) noexcept {
    const double u = u64_to_double(x) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

// An object that owns an Rng declares it as its last member.  The engine is
// 2.5 KB that only draws touch; declared between fields, it would put the
// fields before and after it on cache lines 2.5 KB apart.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : engine_{seed} {}

    // Seed a fork(salt) child would be constructed with.  NOTE: advances the
    // parent engine by one draw, exactly like fork() — callers that rely on
    // positional child streams (replica seeding) must fork in index order.
    [[nodiscard]] std::uint64_t fork_seed(std::uint64_t salt) {
        return engine_() ^ (salt * 0x9e3779b97f4a7c15ULL);
    }

    // Derive an independent child stream; `salt` distinguishes siblings.
    [[nodiscard]] Rng fork(std::uint64_t salt) { return Rng{fork_seed(salt)}; }

    [[nodiscard]] double uniform01() { return unit_interval(engine_()); }

    [[nodiscard]] double uniform(double lo, double hi) {
        return lo + (hi - lo) * uniform01();
    }

    [[nodiscard]] bool bernoulli(double p) { return uniform01() < p; }

    // Exponential with the given mean (not rate), by inversion with the
    // expression std::exponential_distribution evaluates.
    [[nodiscard]] double exponential(double mean) {
        return -std::log(1.0 - uniform01()) / (1.0 / mean);
    }

    [[nodiscard]] TimeNs exponential(TimeNs mean) {
        return seconds(exponential(mean.to_seconds()));
    }

    [[nodiscard]] double normal(double mean, double stddev) {
        std::normal_distribution<double> d{mean, stddev};
        return d(engine_);
    }

    // Pareto with shape `alpha` and minimum `xm` (heavy-tailed file sizes).
    [[nodiscard]] double pareto(double alpha, double xm) {
        const double u = 1.0 - uniform01();  // in (0, 1]
        return xm / std::pow(u, 1.0 / alpha);
    }

    // Uniform integer in [lo, hi] inclusive.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        std::uniform_int_distribution<std::int64_t> d{lo, hi};
        return d(engine_);
    }

    [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

private:
    // URBG adapter: every raw draw — including the ones std:: distributions
    // consume internally — folds into the determinism hash chain when one is
    // installed on this thread (DESIGN.md §14).  Disabled cost is a
    // thread-local load and a branch per draw; the fold itself is out of
    // line so that every draw site stays small enough to inline.
    struct FoldingEngine {
        using result_type = detail::Mt19937_64::result_type;
        static constexpr result_type min() { return detail::Mt19937_64::min(); }
        static constexpr result_type max() { return detail::Mt19937_64::max(); }
        explicit FoldingEngine(std::uint64_t seed) : eng{seed} {}
        result_type operator()() {
            const result_type v = eng();
            if (det::enabled()) [[unlikely]] fold(v);
            return v;
        }
        [[gnu::noinline]] static void fold(result_type v) noexcept {
            det::fold(det::Site::rng, v);
        }
        detail::Mt19937_64 eng;
    };

    FoldingEngine engine_;
};

}  // namespace bb

#endif  // BB_UTIL_RNG_H

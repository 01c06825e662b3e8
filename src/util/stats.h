// Small statistics helpers used by ground-truth extraction and estimators:
// streaming mean/variance and empirical quantiles.
#ifndef BB_UTIL_STATS_H
#define BB_UTIL_STATS_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bb {

// Welford streaming mean / variance.
class RunningStats {
public:
    void add(double x) noexcept {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        if (x < min_ || n_ == 1) min_ = x;
        if (x > max_ || n_ == 1) max_ = x;
    }

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
    [[nodiscard]] double variance() const noexcept {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }
    [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
    [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
    [[nodiscard]] double sum() const noexcept {
        return mean_ * static_cast<double>(n_);
    }

private:
    std::size_t n_{0};
    double mean_{0.0};
    double m2_{0.0};
    double min_{0.0};
    double max_{0.0};
};

// Empirical quantile (linear interpolation) over a copy of the data.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace bb

#endif  // BB_UTIL_STATS_H

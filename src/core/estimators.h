// The paper's loss-characteristic estimators (§5.2.2 basic, §5.3 improved).
//
// Frequency:  F̂ = Σ z_i / M, where z_i is the first digit of y_i.
// Duration (basic, assumes r = p2/p1 = 1):
//     D̂ = 2 (R/S − 1) + 1   slots, with
//     R = #{y ∈ {01,10,11}},  S = #{y ∈ {01,10}}.
// Duration (improved): r̂ = U/V from extended experiments,
//     U = #{011,110},  V = #{001,100},
//     D̂ = (2 V / U)(R/S − 1) + 1.
#ifndef BB_CORE_ESTIMATORS_H
#define BB_CORE_ESTIMATORS_H

#include <cstdint>
#include <optional>

#include "core/types.h"
#include "util/time.h"

namespace bb::core {

struct EstimatorOptions {
    // Count the leading digit of extended experiments toward F̂ as well
    // (harmless and unbiased; the extended reports see the same marginal).
    bool frequency_from_extended{true};
    // §5.5 modification: also fold the first two digits of each extended
    // experiment into the R/S tallies used for duration.
    bool pairs_from_extended{false};
};

struct FrequencyEstimate {
    double value{0.0};       // fraction of congested slots
    std::uint64_t samples{0};

    [[nodiscard]] bool valid() const noexcept { return samples > 0; }
};

struct DurationEstimate {
    double slots{0.0};       // mean episode duration in slots
    std::uint64_t R{0};
    std::uint64_t S{0};
    std::optional<double> r_hat;  // improved algorithm only
    bool valid{false};       // false when S == 0 (or U == 0 for improved)

    [[nodiscard]] double seconds(TimeNs slot_width) const noexcept {
        return slots * slot_width.to_seconds();
    }
};

[[nodiscard]] FrequencyEstimate estimate_frequency(const StateCounts& counts,
                                                   const EstimatorOptions& opts = {});

[[nodiscard]] DurationEstimate estimate_duration_basic(const StateCounts& counts,
                                                       const EstimatorOptions& opts = {});

[[nodiscard]] DurationEstimate estimate_duration_improved(const StateCounts& counts,
                                                          const EstimatorOptions& opts = {});

// §7: expected standard deviation of the duration estimate,
// StdDev(duration) ≈ 1 / sqrt(p * N * L) with L = loss events per slot.
[[nodiscard]] double duration_stddev_guidance(double p, std::int64_t total_slots,
                                              double episodes_per_slot) noexcept;

}  // namespace bb::core

#endif  // BB_CORE_ESTIMATORS_H

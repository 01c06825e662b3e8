// Stationarity check: the paper's guidance (§7) assumes the loss-event rate
// L is stationary over the measurement.  Comparing the frequency estimate of
// the experiments in the first and second halves of the run flags gross
// non-stationarity (cf. the "constancy" analysis of Zhang et al. that the
// paper builds on).
#ifndef BB_CORE_WINDOWED_H
#define BB_CORE_WINDOWED_H

#include <vector>

#include "core/estimators.h"
#include "core/types.h"

namespace bb::core {

struct StationarityReport {
    double first_half_frequency{0.0};
    double second_half_frequency{0.0};
    // |F1 - F2| / max(F1, F2); 0 when either half saw nothing.
    double frequency_shift{0.0};
    bool looks_stationary{true};  // shift below the tolerance
};

// `experiments` and `results` are parallel arrays (the output order of the
// probe process and score_experiments); std::invalid_argument otherwise.
[[nodiscard]] StationarityReport check_stationarity(
    const std::vector<Experiment>& experiments, const std::vector<ExperimentResult>& results,
    SlotIndex total_slots, double tolerance = 0.5, const EstimatorOptions& opts = {});

}  // namespace bb::core

#endif  // BB_CORE_WINDOWED_H

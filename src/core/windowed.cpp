#include "core/windowed.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bb::core {

StationarityReport check_stationarity(const std::vector<Experiment>& experiments,
                                      const std::vector<ExperimentResult>& results,
                                      SlotIndex total_slots, double tolerance,
                                      const EstimatorOptions& opts) {
    if (experiments.size() != results.size()) {
        throw std::invalid_argument{"check_stationarity: parallel arrays expected"};
    }
    StateCounts first;
    StateCounts second;
    const SlotIndex half = total_slots / 2;
    for (std::size_t i = 0; i < experiments.size(); ++i) {
        if (experiments[i].start_slot < half) {
            first.add(results[i]);
        } else {
            second.add(results[i]);
        }
    }
    StationarityReport rep;
    rep.first_half_frequency = estimate_frequency(first, opts).value;
    rep.second_half_frequency = estimate_frequency(second, opts).value;
    const double hi = std::max(rep.first_half_frequency, rep.second_half_frequency);
    if (hi > 0.0) {
        rep.frequency_shift =
            std::abs(rep.first_half_frequency - rep.second_half_frequency) / hi;
    }
    rep.looks_stationary = rep.frequency_shift <= tolerance;
    return rep;
}

}  // namespace bb::core

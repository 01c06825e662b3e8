#include "core/synthetic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace bb::core {

std::vector<bool> synth_congestion_series(Rng& rng, SlotIndex total_slots,
                                          double mean_on_slots, double mean_off_slots) {
    SyntheticSeriesGen gen{rng, mean_on_slots, mean_off_slots};
    std::vector<bool> series;
    series.reserve(static_cast<std::size_t>(total_slots));
    for (SlotIndex s = 0; s < total_slots; ++s) series.push_back(gen.next());
    // Hand the advanced engine back: callers draw their probe design from
    // the same stream right after the series.
    rng = gen.rng();
    return series;
}

SyntheticSeriesGen::SyntheticSeriesGen(Rng rng, double mean_on_slots, double mean_off_slots)
    : mean_on_slots_{mean_on_slots}, mean_off_slots_{mean_off_slots}, on_{false},
      rng_{std::move(rng)} {
    if (mean_on_slots_ < 1.0 || mean_off_slots_ < 1.0) {
        throw std::invalid_argument{"synthetic series: sojourn means must be >= 1 slot"};
    }
    on_ = rng_.bernoulli(mean_on_slots_ / (mean_on_slots_ + mean_off_slots_));
}

SlotIndex SyntheticSeriesGen::draw_sojourn(double mean) {
    // Geometric with mean m: P(len = k) = (1/m)(1 - 1/m)^(k-1), k >= 1.
    const double q = 1.0 / mean;
    const double u = rng_.uniform01();
    return std::max<SlotIndex>(
        1, static_cast<SlotIndex>(std::ceil(std::log1p(-u) / std::log1p(-q))));
}

bool SyntheticSeriesGen::next() {
    if (remaining_ == 0) {
        remaining_ = draw_sojourn(on_ ? mean_on_slots_ : mean_off_slots_);
    }
    const bool state = on_;
    if (--remaining_ == 0) on_ = !on_;
    return state;
}

void SeriesTruthAccumulator::consume(bool congested) {
    ++slots_;
    if (congested) {
        ++congested_;
        ++run_;
    } else if (run_ > 0) {
        ++episodes_;
        run_total_ += run_;
        run_ = 0;
    }
}

SeriesTruth SeriesTruthAccumulator::finalize() const {
    SeriesTruth t;
    if (slots_ == 0) return t;
    std::uint64_t episodes = episodes_;
    std::uint64_t run_total = run_total_;
    if (run_ > 0) {  // close the run still open at the end of the series
        ++episodes;
        run_total += run_;
    }
    t.frequency = static_cast<double>(congested_) / static_cast<double>(slots_);
    t.episodes = static_cast<std::size_t>(episodes);
    t.mean_duration_slots =
        episodes > 0 ? static_cast<double>(run_total) / static_cast<double>(episodes) : 0.0;
    return t;
}

SeriesTruth series_truth(const std::vector<bool>& series) {
    SeriesTruthAccumulator acc;
    for (const bool congested : series) acc.consume(congested);
    return acc.finalize();
}

std::vector<ExperimentResult> observe_with_fidelity(const std::vector<Experiment>& experiments,
                                                    const std::vector<bool>& truth,
                                                    const FidelityModel& fidelity, Rng& rng) {
    std::vector<ExperimentResult> out;
    out.reserve(experiments.size());
    const auto at = [&truth](SlotIndex i) {
        return i >= 0 && i < static_cast<SlotIndex>(truth.size()) &&
               truth[static_cast<std::size_t>(i)];
    };
    for (const auto& e : experiments) {
        std::uint8_t code = 0;
        int ones = 0;
        const int n = e.probes();
        for (int k = 0; k < n; ++k) {
            const bool c = at(e.start_slot + k);
            code = static_cast<std::uint8_t>((code << 1) | (c ? 1 : 0));
            if (c) ++ones;
        }
        const double keep_prob = ones == 0 ? 1.0 : (ones == 1 ? fidelity.p1 : fidelity.p2);
        if (ones > 0 && !rng.bernoulli(keep_prob)) code = 0;  // failure collapses to 0...0
        out.push_back({e.kind, code});
    }
    return out;
}

}  // namespace bb::core

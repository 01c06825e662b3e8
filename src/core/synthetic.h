// Synthetic congestion processes and the paper's report-fidelity model
// (§5.2.1): given the true state string Y_i of an experiment, the report y_i
// equals Y_i with probability p_k (k = number of congested slots in Y_i) and
// otherwise collapses to all-zeros.  Used to verify the consistency claims of
// §5.2.2/§5.3 independently of any network simulation.
#ifndef BB_CORE_SYNTHETIC_H
#define BB_CORE_SYNTHETIC_H

#include <vector>

#include "core/types.h"
#include "util/rng.h"

namespace bb::core {

// Alternating renewal on/off process in discrete slots with geometric
// sojourn times: mean episode length `mean_on_slots`, mean gap
// `mean_off_slots`.  True frequency is on/(on+off); true mean duration is
// `mean_on_slots`.  Emits one slot per next() call in O(1) memory; a sojourn
// is drawn only when a run starts, so stopping after n slots leaves the Rng
// exactly where synth_congestion_series(rng, n, ...) leaves it.
class SyntheticSeriesGen {
public:
    SyntheticSeriesGen(Rng rng, double mean_on_slots, double mean_off_slots);

    // State of the next slot in sequence.
    [[nodiscard]] bool next();

    // The engine, advanced past every draw made so far.
    [[nodiscard]] const Rng& rng() const noexcept { return rng_; }

private:
    [[nodiscard]] SlotIndex draw_sojourn(double mean);

    double mean_on_slots_;
    double mean_off_slots_;
    bool on_;
    SlotIndex remaining_{0};
    Rng rng_;  // last, see util/rng.h
};

// Exact frequency / mean-duration of a slot series (oracle bookkeeping).
struct SeriesTruth {
    double frequency{0.0};
    double mean_duration_slots{0.0};
    std::size_t episodes{0};
};

// Online fold of a slot series into its oracle truth; finalize() may be
// called at any point and covers the slots consumed so far.
class SeriesTruthAccumulator {
public:
    void consume(bool congested);
    [[nodiscard]] SeriesTruth finalize() const;
    [[nodiscard]] std::uint64_t slots() const noexcept { return slots_; }

private:
    std::uint64_t slots_{0};
    std::uint64_t congested_{0};
    std::uint64_t episodes_{0};
    std::uint64_t run_{0};
    std::uint64_t run_total_{0};
};

// Batch wrappers: the first `total_slots` slots of a SyntheticSeriesGen
// drawn from `rng` (which is advanced past them), and the truth of a
// materialized series.
[[nodiscard]] std::vector<bool> synth_congestion_series(Rng& rng, SlotIndex total_slots,
                                                        double mean_on_slots,
                                                        double mean_off_slots);
[[nodiscard]] SeriesTruth series_truth(const std::vector<bool>& series);

// Apply the fidelity model to a set of experiments against the true series.
struct FidelityModel {
    double p1{1.0};  // P(report correct | one congested slot in Y)
    double p2{1.0};  // P(report correct | two congested slots in Y)
    // Y with three congested slots (111) uses p2 as well; the paper leaves
    // that failure rate unknown and never uses 111 reports in estimation.
};

[[nodiscard]] std::vector<ExperimentResult> observe_with_fidelity(
    const std::vector<Experiment>& experiments, const std::vector<bool>& truth,
    const FidelityModel& fidelity, Rng& rng);

}  // namespace bb::core

#endif  // BB_CORE_SYNTHETIC_H

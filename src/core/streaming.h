// The §5 analysis as one online sink.  Every estimate is a moment estimator
// over integer tallies, so the analyzer keeps only a StateCounts (O(1)
// memory) and evaluates the pure functions of estimators.h / validation.h on
// it at finalize() — the same code the batch callers run on their counts,
// so there is no second copy of the arithmetic to drift.
//
// The EstimatorOptions are fixed at construction: finalize() evaluates under
// them.  Callers that want other options pass counts() to evaluate().
#ifndef BB_CORE_STREAMING_H
#define BB_CORE_STREAMING_H

#include <cstdint>

#include "core/estimators.h"
#include "core/report_sink.h"
#include "core/types.h"
#include "core/validation.h"

namespace bb::obs {
class Counter;
}  // namespace bb::obs

namespace bb::core {

// Frequency + basic/improved duration + validation over whatever has been
// consumed so far: the engine behind BadabingTool::analyze() and the
// synthetic (probe.streaming) replicas of ReplicaRunner.  Each consumed
// report also folds into the determinism hash chain (DESIGN.md §14); sinks
// that must not fold use CountsSink instead.
class StreamingAnalyzer final : public ReportSink {
public:
    struct Result {
        FrequencyEstimate frequency;
        DurationEstimate duration_basic;
        DurationEstimate duration_improved;
        ValidationReport validation;
        std::uint64_t reports{0};
    };

    explicit StreamingAnalyzer(EstimatorOptions opts = {});
    // Publishes the accumulated per-state tallies to the obs registry exactly
    // once per analyzer lifetime, hence no copies.  Callers that export the
    // registry must let the analyzer go out of scope first.
    ~StreamingAnalyzer() override;
    StreamingAnalyzer(const StreamingAnalyzer&) = delete;
    StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

    void consume(const ExperimentResult& r) override;

    [[nodiscard]] Result finalize() const { return evaluate(counts_, opts_); }

    // The estimates of any tally under `opts`: finalize() is this on the
    // analyzer's own counts and options.
    [[nodiscard]] static Result evaluate(const StateCounts& counts, EstimatorOptions opts);

    [[nodiscard]] const StateCounts& counts() const noexcept { return counts_; }
    [[nodiscard]] std::uint64_t reports() const noexcept {
        return counts_.basic_total() + counts_.extended_total();
    }

private:
    EstimatorOptions opts_;
    StateCounts counts_;
    // Registry handle cached at construction so the hot consume() path pays
    // one relaxed atomic add, never a registry lookup.
    obs::Counter* reports_ctr_;
};

}  // namespace bb::core

#endif  // BB_CORE_STREAMING_H

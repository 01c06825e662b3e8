#include "core/streaming.h"

#include "obs/metrics.h"
#include "util/det.h"

namespace bb::core {

StreamingAnalyzer::StreamingAnalyzer(EstimatorOptions opts)
    : opts_{opts}, reports_ctr_{&obs::counter("core.reports_scored")} {}

StreamingAnalyzer::~StreamingAnalyzer() {
    // Per-state tallies are batched here (not per consume) so the streaming
    // hot loop stays within the instrumentation overhead budget.
    static const char* const kBasicNames[4] = {"core.reports.b00", "core.reports.b01",
                                               "core.reports.b10", "core.reports.b11"};
    for (std::size_t i = 0; i < counts_.basic.size(); ++i) {
        obs::counter(kBasicNames[i]).inc(counts_.basic[i]);
    }
    obs::counter("core.reports.extended").inc(counts_.extended_total());
}

void StreamingAnalyzer::consume(const ExperimentResult& r) {
    det::fold(det::Site::report, 0, static_cast<std::uint64_t>(r.kind),
              static_cast<std::uint64_t>(r.code));
    counts_.add(r);
    reports_ctr_->inc();
}

StreamingAnalyzer::Result StreamingAnalyzer::evaluate(const StateCounts& counts,
                                                      EstimatorOptions opts) {
    Result res;
    res.frequency = estimate_frequency(counts, opts);
    res.duration_basic = estimate_duration_basic(counts, opts);
    res.duration_improved = estimate_duration_improved(counts, opts);
    res.validation = validate(counts);
    res.reports = counts.basic_total() + counts.extended_total();
    return res;
}

}  // namespace bb::core

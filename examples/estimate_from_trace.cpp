// Using the estimation core without any simulator: feed your own probe
// records (e.g. parsed from a real BADABING receiver log) into the marking,
// tally and estimation pipeline.
//
// Here the "trace" is generated synthetically: an alternating-renewal
// congestion process observed through the paper's fidelity model, with
// imperfect reporting (p1 != p2) to show why the improved estimator exists.
#include <cstdio>

#include "core/probe_process.h"
#include "core/streaming.h"
#include "core/synthetic.h"
#include "util/rng.h"

int main() {
    using namespace bb;
    using namespace bb::core;

    // The unknown ground truth: episodes of ~70 ms (14 slots of 5 ms),
    // roughly 0.7% of slots congested.
    Rng rng{2025};
    const SlotIndex slots = 1'000'000;
    const auto truth_series = synth_congestion_series(rng, slots, 14.0, 1986.0);
    const auto truth = series_truth(truth_series);

    // The measurement: improved design at p = 0.4, with probes that miss an
    // on-going-congestion state more often than a boundary state
    // (p2 = 0.6 < p1 = 0.9).
    ProbeProcessConfig pcfg;
    pcfg.p = 0.4;
    pcfg.improved = true;
    const auto design = design_probe_process(rng, slots, pcfg);
    const auto reports =
        observe_with_fidelity(design.experiments, truth_series, FidelityModel{0.9, 0.6}, rng);

    // The analysis: exactly what you would run on real receiver logs.
    StreamingAnalyzer analyzer;
    for (const auto& r : reports) analyzer.consume(r);
    const auto res = analyzer.finalize();
    const auto& freq = res.frequency;
    const auto& basic = res.duration_basic;
    const auto& improved = res.duration_improved;
    const auto& validation = res.validation;

    std::printf("experiments analyzed : %llu basic + %llu extended\n",
                static_cast<unsigned long long>(analyzer.counts().basic_total()),
                static_cast<unsigned long long>(analyzer.counts().extended_total()));
    std::printf("true frequency       : %.5f\n", truth.frequency);
    std::printf("estimated frequency  : %.5f\n", freq.value);
    std::printf("true duration        : %.2f slots\n", truth.mean_duration_slots);
    std::printf("basic estimator      : %.2f slots  <- biased low, assumes p1 == p2\n",
                basic.valid ? basic.slots : 0.0);
    std::printf("improved estimator   : %.2f slots  (r_hat = %.3f)\n",
                improved.valid ? improved.slots : 0.0, improved.r_hat.value_or(0.0));
    std::printf("validation           : pair asymmetry %.3f, violations %.4f -> %s\n",
                validation.pair_asymmetry, validation.violation_fraction,
                validation.acceptable() ? "estimates usable" : "estimates suspect");
    std::printf("\nsee Section 7 guidance: expected StdDev(duration) ~ %.3f for this run\n",
                duration_stddev_guidance(pcfg.p, slots,
                                          static_cast<double>(truth.episodes) /
                                              static_cast<double>(slots)));
    return 0;
}

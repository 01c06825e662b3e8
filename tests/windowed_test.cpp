#include "core/windowed.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/probe_process.h"
#include "core/synthetic.h"

namespace bb::core {
namespace {

TEST(Windowed, RejectsBadInputs) {
    std::vector<Experiment> exps{{0, ExperimentKind::basic}};
    std::vector<ExperimentResult> res;  // mismatched sizes
    EXPECT_THROW((void)check_stationarity(exps, res, 100), std::invalid_argument);
}

TEST(Windowed, DetectsFrequencyStep) {
    // Congestion frequency jumps 4x at the midpoint: the stationarity check
    // must notice.
    Rng rng{42};
    const SlotIndex n = 1'000'000;
    auto first = synth_congestion_series(rng, n / 2, 10.0, 990.0);   // F ~ 0.01
    const auto second = synth_congestion_series(rng, n / 2, 10.0, 240.0);  // F ~ 0.04
    first.insert(first.end(), second.begin(), second.end());

    ProbeProcessConfig pcfg;
    pcfg.p = 0.3;
    const auto design = design_probe_process(rng, n, pcfg);
    const auto obs =
        observe_with_fidelity(design.experiments, first, FidelityModel{1.0, 1.0}, rng);

    const auto rep = check_stationarity(design.experiments, obs, n, 0.5);
    EXPECT_FALSE(rep.looks_stationary);
    EXPECT_GT(rep.second_half_frequency, rep.first_half_frequency * 2.0);
}

TEST(Windowed, StationaryProcessPasses) {
    Rng rng{43};
    const SlotIndex n = 1'000'000;
    const auto series = synth_congestion_series(rng, n, 10.0, 990.0);
    ProbeProcessConfig pcfg;
    pcfg.p = 0.3;
    const auto design = design_probe_process(rng, n, pcfg);
    const auto obs =
        observe_with_fidelity(design.experiments, series, FidelityModel{1.0, 1.0}, rng);
    const auto rep = check_stationarity(design.experiments, obs, n, 0.5);
    EXPECT_TRUE(rep.looks_stationary);
    EXPECT_LT(rep.frequency_shift, 0.3);
}

TEST(Windowed, EmptyInputLooksStationary) {
    const auto rep = check_stationarity({}, {}, 1000);
    EXPECT_TRUE(rep.looks_stationary);
    EXPECT_DOUBLE_EQ(rep.frequency_shift, 0.0);
}

}  // namespace
}  // namespace bb::core

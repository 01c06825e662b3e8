// End-to-end validation cells: BADABING at p = 0.3 against each queue
// discipline (and against non-congestive Gilbert-Elliott loss), with
// per-cell error bounds on the frequency estimator.  The bounds are loose —
// examples/ablation_aqm_sweep.json measures the bias precisely (its cells are
// pinned in spec_golden_test.cpp); these tests pin that each
// cell produces a sane, finite, same-order estimate so a regression in any
// discipline/estimator pairing cannot slip through silently.
#include <gtest/gtest.h>

#include <cmath>

#include "scenarios/experiment.h"
#include "sim/lossy_link.h"

namespace bb {
namespace {

struct Cell {
    scenarios::QueueDiscipline discipline;
    bool ge_enabled{false};
};

struct CellResult {
    measure::TruthSummary truth;
    probes::BadabingResult est;
    std::uint64_t queue_drops{0};
    std::uint64_t ge_drops{0};
    std::uint64_t monitor_drops{0};
};

CellResult run_cell(const Cell& cell) {
    scenarios::TestbedConfig tb;
    tb.bottleneck_rate_bps = 20'000'000;
    tb.discipline = cell.discipline;
    tb.seed = 42;
    if (cell.ge_enabled) {
        tb.ge_enabled = true;
        tb.ge.p_bad_loss = 0.3;
        tb.ge.mean_good = seconds_i(5);
        tb.ge.mean_bad = milliseconds(100);
    }
    scenarios::WorkloadConfig wl;
    wl.kind = scenarios::TrafficKind::cbr_uniform;
    wl.duration = seconds_i(120);
    wl.seed = 42;

    scenarios::Experiment exp{tb, wl};
    probes::BadabingConfig probe;
    probe.p = 0.3;
    probe.total_slots = 0;  // sized to the workload window
    auto& tool = exp.add_badabing(probe);
    exp.run();

    CellResult r;
    r.truth = exp.truth();
    r.est = tool.analyze(exp.default_marking(probe.p));
    r.queue_drops = exp.testbed().bottleneck().drops();
    r.ge_drops = exp.testbed().ge() ? exp.testbed().ge()->drops() : 0;
    r.monitor_drops = exp.monitor().drops_total();
    return r;
}

void expect_same_order(const CellResult& r, double rel_bound) {
    ASSERT_GT(r.truth.frequency, 0.0) << "the cell must contain loss episodes";
    ASSERT_GT(r.est.frequency.value, 0.0) << "the estimator must see them";
    EXPECT_LE(r.est.frequency.value, 1.0);
    const double rel =
        std::abs(r.est.frequency.value - r.truth.frequency) / r.truth.frequency;
    EXPECT_LT(rel, rel_bound) << "estimate " << r.est.frequency.value << " vs truth "
                              << r.truth.frequency;
    EXPECT_TRUE(std::isfinite(r.est.duration_basic.slots));
    EXPECT_GE(r.est.duration_basic.slots, 0.0);
}

TEST(AqmValidation, DropTailCell) {
    const CellResult r = run_cell({scenarios::QueueDiscipline::drop_tail});
    // The paper's own configuration: the estimator tracks truth closely
    // (Table 4 reproduces ~6% here).
    expect_same_order(r, 0.5);
    EXPECT_EQ(r.monitor_drops, r.queue_drops);
}

TEST(AqmValidation, RedCell) {
    const CellResult r = run_cell({scenarios::QueueDiscipline::red});
    // RED's probabilistic early drops soften episode edges; the estimator
    // must stay within the same order of magnitude.
    expect_same_order(r, 1.0);
}

TEST(AqmValidation, PieCell) {
    const CellResult r = run_cell({scenarios::QueueDiscipline::pie});
    expect_same_order(r, 1.0);
}

TEST(AqmValidation, CoDelCell) {
    const CellResult r = run_cell({scenarios::QueueDiscipline::codel});
    // CoDel reshapes episodes the most (head drops on the sqrt schedule);
    // allow the widest band short of an order-of-magnitude error.
    expect_same_order(r, 2.0);
}

TEST(AqmValidation, GilbertElliottLossCountsTowardTruth) {
    const CellResult with_ge = run_cell({scenarios::QueueDiscipline::drop_tail, true});
    const CellResult without = run_cell({scenarios::QueueDiscipline::drop_tail, false});
    // Ground truth must fold the GE drops in on top of the queue's own.
    EXPECT_GT(with_ge.ge_drops, 0u);
    EXPECT_EQ(with_ge.monitor_drops, with_ge.queue_drops + with_ge.ge_drops);
    EXPECT_GT(with_ge.truth.frequency, without.truth.frequency)
        << "non-congestive loss adds episodes to the truth record";
    // The probe process sees GE loss too (probes die on that segment), so the
    // estimate rises with it and stays within a loose band of truth.
    EXPECT_GT(with_ge.est.frequency.value, 0.0);
    const double rel = std::abs(with_ge.est.frequency.value - with_ge.truth.frequency) /
                       with_ge.truth.frequency;
    EXPECT_LT(rel, 3.0);
}

}  // namespace
}  // namespace bb

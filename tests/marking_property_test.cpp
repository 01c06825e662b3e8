// Property-based tests of congestion marking over randomized probe streams:
// invariants that must hold for any input, including threshold monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/estimators.h"
#include "core/marking.h"
#include "core/probe_process.h"
#include "param_name.h"
#include "util/rng.h"

namespace bb::core {
namespace {

struct FuzzCase {
    std::uint64_t seed;
    int probes;
    double loss_rate;      // per-probe P(lose >= 1 packet)
    double high_delay_rate;  // P(near-full delay | not lost)
};

class MarkingFuzz : public ::testing::TestWithParam<FuzzCase> {};

std::vector<ProbeOutcome> random_probes(const FuzzCase& fc) {
    Rng rng{fc.seed};
    std::vector<ProbeOutcome> probes;
    probes.reserve(static_cast<std::size_t>(fc.probes));
    const TimeNs base = milliseconds(50);
    for (int i = 0; i < fc.probes; ++i) {
        ProbeOutcome po;
        po.slot = i;
        po.send_time = milliseconds(5) * i;
        po.packets_sent = 3;
        const bool lost = rng.bernoulli(fc.loss_rate);
        po.packets_lost = lost ? static_cast<int>(rng.uniform_int(1, 3)) : 0;
        po.any_received = po.packets_lost < 3;
        TimeNs qd;
        if (lost || rng.bernoulli(fc.high_delay_rate)) {
            qd = milliseconds(rng.uniform_int(90, 100));
        } else {
            qd = milliseconds(rng.uniform_int(0, 30));
        }
        po.max_owd = base + qd;
        probes.push_back(po);
    }
    return probes;
}

TEST_P(MarkingFuzz, OneMarkPerProbeAndLossImpliesCongested) {
    const auto probes = random_probes(GetParam());
    CongestionMarker marker;
    const auto marks = marker.mark(probes);
    ASSERT_EQ(marks.size(), probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
        EXPECT_EQ(marks[i].slot, probes[i].slot);
        if (probes[i].any_lost()) {
            EXPECT_TRUE(marks[i].congested);
            EXPECT_TRUE(marks[i].by_loss);
        }
        EXPECT_FALSE(marks[i].by_loss && marks[i].by_delay) << "rules are exclusive";
        if (marks[i].congested) {
            EXPECT_TRUE(marks[i].by_loss || marks[i].by_delay);
        }
    }
}

TEST_P(MarkingFuzz, AlphaMonotonicity) {
    const auto probes = random_probes(GetParam());
    MarkingConfig tight;
    tight.alpha = 0.05;
    MarkingConfig loose = tight;
    loose.alpha = 0.3;
    CongestionMarker m1{tight};
    CongestionMarker m2{loose};
    const auto a = m1.mark(probes);
    const auto b = m2.mark(probes);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Everything marked under the tight threshold stays marked under the
        // looser one (same tau, lower delay bar).
        if (a[i].congested) {
            EXPECT_TRUE(b[i].congested) << "probe " << i;
        }
    }
}

TEST_P(MarkingFuzz, TauMonotonicity) {
    const auto probes = random_probes(GetParam());
    MarkingConfig narrow;
    narrow.tau = milliseconds(10);
    MarkingConfig wide = narrow;
    wide.tau = milliseconds(200);
    CongestionMarker m1{narrow};
    CongestionMarker m2{wide};
    const auto a = m1.mark(probes);
    const auto b = m2.mark(probes);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].congested) {
            EXPECT_TRUE(b[i].congested) << "probe " << i;
        }
    }
}

TEST_P(MarkingFuzz, LossOnlyModeIsSubsetOfFullRule) {
    const auto probes = random_probes(GetParam());
    MarkingConfig loss_only;
    loss_only.use_delay_rule = false;
    CongestionMarker m1{loss_only};
    CongestionMarker m2{MarkingConfig{}};
    const auto a = m1.mark(probes);
    const auto b = m2.mark(probes);
    std::size_t a_marked = 0;
    std::size_t b_marked = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].congested) {
            ++a_marked;
            EXPECT_TRUE(b[i].congested);
        }
        if (b[i].congested) ++b_marked;
    }
    EXPECT_LE(a_marked, b_marked);
}

TEST_P(MarkingFuzz, EstimatesStayInRange) {
    const auto probes = random_probes(GetParam());
    CongestionMarker marker;
    const auto marks = marker.mark(probes);
    // Treat consecutive probes as basic experiments over adjacent slots.
    StateCounts counts;
    for (std::size_t i = 0; i + 1 < marks.size(); i += 2) {
        counts.add({ExperimentKind::basic,
                    basic_code(marks[i].congested, marks[i + 1].congested)});
    }
    const auto f = estimate_frequency(counts);
    EXPECT_GE(f.value, 0.0);
    EXPECT_LE(f.value, 1.0);
    const auto d = estimate_duration_basic(counts);
    if (d.valid) {
        EXPECT_GE(d.slots, 1.0) << "episodes are at least one slot";
    }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, MarkingFuzz,
                         ::testing::Values(FuzzCase{1, 0, 0.0, 0.0},
                                           FuzzCase{2, 1, 1.0, 0.0},
                                           FuzzCase{3, 500, 0.0, 0.0},
                                           FuzzCase{4, 500, 0.02, 0.05},
                                           FuzzCase{5, 500, 0.3, 0.3},
                                           FuzzCase{6, 500, 0.9, 0.1},
                                           FuzzCase{7, 2000, 0.01, 0.01}),
                         [](const ::testing::TestParamInfo<FuzzCase>& param_info) {
                             const FuzzCase& c = param_info.param;
                             return "seed" + std::to_string(c.seed) + "_probes" +
                                    std::to_string(c.probes) + "_loss" +
                                    param_token(c.loss_rate) + "_highdelay" +
                                    param_token(c.high_delay_rate);
                         });

}  // namespace
}  // namespace bb::core

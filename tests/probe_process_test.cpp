#include "core/probe_process.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <vector>

namespace bb::core {
namespace {

// The start draw as it was made before it became a threshold on the raw
// word: each Bernoulli draw compares uniform01() with a double.  It is the
// oracle the threshold draw must equal, word for word.
std::optional<ExperimentKind> double_start_draw(Rng& rng, const ProbeProcessConfig& cfg) {
    if (!rng.bernoulli(cfg.p)) return std::nullopt;
    return cfg.improved && rng.bernoulli(cfg.extended_fraction) ? ExperimentKind::extended
                                                                : ExperimentKind::basic;
}

// The designer's loop over double_start_draw, with no reservation.
ProbeDesign double_draw_design(Rng& rng, SlotIndex total_slots, const ProbeProcessConfig& cfg) {
    ProbeDesign design;
    for (SlotIndex i = 0; i < total_slots; ++i) {
        const auto kind = double_start_draw(rng, cfg);
        if (!kind) continue;
        const Experiment e{i, *kind};
        const SlotIndex end = i + e.probes();
        if (end > total_slots) continue;
        design.experiments.push_back(e);
        SlotIndex s = design.probe_slots.empty() ? i : std::max(i, design.probe_slots.back() + 1);
        for (; s < end; ++s) design.probe_slots.push_back(s);
    }
    return design;
}

TEST(ProbeProcess, RejectsBadParameters) {
    Rng rng{1};
    ProbeProcessConfig cfg;
    cfg.p = 0.0;
    EXPECT_THROW(design_probe_process(rng, 100, cfg), std::invalid_argument);
    cfg.p = 1.5;
    EXPECT_THROW(design_probe_process(rng, 100, cfg), std::invalid_argument);
    cfg.p = 0.5;
    cfg.extended_fraction = -0.1;
    EXPECT_THROW(design_probe_process(rng, 100, cfg), std::invalid_argument);
}

// Every comparison with NaN is false, so a range check written as two
// rejections lets NaN through; a threshold draw would then read a NaN p as
// "always start".
TEST(ProbeProcess, RejectsNonFiniteParameters) {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    VectorSink<ExperimentResult> sink;
    for (const double bad : {kNaN, -kNaN, kInf, -kInf}) {
        SCOPED_TRACE(bad);
        Rng rng{1};
        ProbeProcessConfig cfg;
        cfg.p = bad;
        EXPECT_THROW(design_probe_process(rng, 100, cfg), std::invalid_argument);
        EXPECT_THROW((StreamingExperimentScorer{Rng{1}, cfg, sink}), std::invalid_argument);
        cfg.p = 0.5;
        cfg.improved = true;
        cfg.extended_fraction = bad;
        EXPECT_THROW(design_probe_process(rng, 100, cfg), std::invalid_argument);
        EXPECT_THROW((StreamingExperimentScorer{Rng{1}, cfg, sink}), std::invalid_argument);
    }
}

// The designer draws with integer thresholds; over every p that matters
// (the smallest, the paper's grid, the largest below 1, 1, and values
// unit_interval itself produces) and every window length class, it must
// equal the double-draw loop bit for bit: experiments, probe slots, and
// where it leaves the Rng.
TEST(ProbeProcess, ThresholdDesignEqualsDoubleDrawOracle) {
    Rng words{0x7E57};
    std::vector<double> ps{1e-300, 0.1, 0.3, 0.5, 0.7, 0.9, std::nextafter(1.0, 0.0), 1.0,
                           unit_interval(std::uint64_t{1} << 62)};
    for (int i = 0; i < 3; ++i) ps.push_back(unit_interval(words.next_u64()));
    for (const double p : ps) {
        for (const bool improved : {false, true}) {
            for (const SlotIndex slots : {0, 1, 2, 3, 6'000, 24'000}) {
                SCOPED_TRACE(testing::Message() << "p=" << p << " improved=" << improved
                                                << " slots=" << slots);
                ProbeProcessConfig cfg;
                cfg.p = p;
                cfg.improved = improved;
                const std::uint64_t seed = words.next_u64();
                Rng rng{seed};
                Rng oracle_rng{seed};
                const ProbeDesign d = design_probe_process(rng, slots, cfg);
                const ProbeDesign o = double_draw_design(oracle_rng, slots, cfg);
                ASSERT_EQ(d.experiments.size(), o.experiments.size());
                for (std::size_t i = 0; i < o.experiments.size(); ++i) {
                    ASSERT_EQ(d.experiments[i].start_slot, o.experiments[i].start_slot);
                    ASSERT_EQ(d.experiments[i].kind, o.experiments[i].kind);
                }
                ASSERT_EQ(d.probe_slots, o.probe_slots);
                EXPECT_EQ(rng.next_u64(), oracle_rng.next_u64());
            }
        }
    }
}

TEST(ProbeProcess, ExperimentRateMatchesP) {
    Rng rng{2};
    ProbeProcessConfig cfg;
    cfg.p = 0.3;
    const auto d = design_probe_process(rng, 100'000, cfg);
    EXPECT_NEAR(static_cast<double>(d.experiments.size()) / 100'000.0, 0.3, 0.01);
}

TEST(ProbeProcess, BasicDesignHasOnlyBasicExperiments) {
    Rng rng{3};
    ProbeProcessConfig cfg;
    cfg.p = 0.5;
    cfg.improved = false;
    const auto d = design_probe_process(rng, 10'000, cfg);
    EXPECT_TRUE(std::all_of(d.experiments.begin(), d.experiments.end(), [](const Experiment& e) {
        return e.kind == ExperimentKind::basic;
    }));
}

TEST(ProbeProcess, ImprovedDesignMixesKindsEvenly) {
    Rng rng{4};
    ProbeProcessConfig cfg;
    cfg.p = 0.5;
    cfg.improved = true;
    const auto d = design_probe_process(rng, 100'000, cfg);
    const auto extended =
        std::count_if(d.experiments.begin(), d.experiments.end(), [](const Experiment& e) {
            return e.kind == ExperimentKind::extended;
        });
    EXPECT_NEAR(static_cast<double>(extended) / static_cast<double>(d.experiments.size()), 0.5,
                0.02);
}

TEST(ProbeProcess, ProbeSlotsAreSortedUniqueAndCoverExperiments) {
    Rng rng{5};
    ProbeProcessConfig cfg;
    cfg.p = 0.7;
    cfg.improved = true;
    const auto d = design_probe_process(rng, 5'000, cfg);
    EXPECT_TRUE(std::is_sorted(d.probe_slots.begin(), d.probe_slots.end()));
    EXPECT_EQ(std::adjacent_find(d.probe_slots.begin(), d.probe_slots.end()),
              d.probe_slots.end());
    std::unordered_set<SlotIndex> slots(d.probe_slots.begin(), d.probe_slots.end());
    for (const auto& e : d.experiments) {
        for (int k = 0; k < e.probes(); ++k) {
            EXPECT_TRUE(slots.count(e.start_slot + k)) << "slot " << e.start_slot + k;
        }
    }
}

TEST(ProbeProcess, ExperimentsStayInsideWindow) {
    Rng rng{6};
    ProbeProcessConfig cfg;
    cfg.p = 1.0;  // experiment at every slot
    cfg.improved = true;
    const SlotIndex n = 100;
    const auto d = design_probe_process(rng, n, cfg);
    for (const auto& e : d.experiments) {
        EXPECT_LE(e.start_slot + e.probes(), n);
    }
    EXPECT_FALSE(d.probe_slots.empty());
    EXPECT_LT(d.probe_slots.back(), n);
}

TEST(ProbeProcess, FullRateProbesEverySlot) {
    Rng rng{7};
    ProbeProcessConfig cfg;
    cfg.p = 1.0;
    const SlotIndex n = 50;
    const auto d = design_probe_process(rng, n, cfg);
    // With p = 1 and basic experiments, every slot 0..n-1 is probed.
    EXPECT_EQ(static_cast<SlotIndex>(d.probe_slots.size()), n);
}

TEST(ProbeProcess, ExpectedLoadFormula) {
    ProbeProcessConfig cfg;
    cfg.p = 0.3;
    EXPECT_DOUBLE_EQ(expected_probe_slot_fraction(cfg), 0.6);
    cfg.improved = true;
    cfg.extended_fraction = 0.5;
    EXPECT_DOUBLE_EQ(expected_probe_slot_fraction(cfg), 0.3 * 2.5);
}

TEST(ProbeProcess, StartGapsFollowGeometricLaw) {
    // Consecutive-start gaps of the per-slot Bernoulli(p) designer follow
    // P(gap = g) = p (1-p)^(g-1), g >= 1.
    ProbeProcessConfig cfg;
    cfg.p = 0.2;
    Rng rng{41};
    const ProbeDesign d = design_probe_process(rng, 400'000, cfg);
    ASSERT_GT(d.experiments.size(), 10'000u);
    constexpr SlotIndex kMaxGap = 25;
    std::vector<double> pmf(kMaxGap + 1, 0.0);
    const double n = static_cast<double>(d.experiments.size() - 1);
    for (std::size_t i = 1; i < d.experiments.size(); ++i) {
        const SlotIndex g = d.experiments[i].start_slot - d.experiments[i - 1].start_slot;
        pmf[static_cast<std::size_t>(std::min(g, kMaxGap))] += 1.0 / n;
    }
    for (SlotIndex g = 1; g < kMaxGap; ++g) {
        const double expected = cfg.p * std::pow(1.0 - cfg.p, static_cast<double>(g - 1));
        EXPECT_NEAR(pmf[static_cast<std::size_t>(g)], expected, 0.01) << "gap " << g;
    }
}

TEST(ProbeProcess, DesignerIsALoopOverTheStartDraw) {
    // design_probe_process makes exactly one draw_experiment_start per slot
    // and keeps the experiments that fit the window; the Rng ends up in the
    // same place as a hand-written loop over the shared draw.
    ProbeProcessConfig cfg;
    cfg.p = 0.4;
    cfg.improved = true;
    constexpr SlotIndex kSlots = 5'000;
    Rng designer_rng{2005};
    Rng loop_rng{2005};
    const ProbeDesign d = design_probe_process(designer_rng, kSlots, cfg);
    const StartThresholds draw{cfg};
    std::vector<Experiment> expected;
    for (SlotIndex i = 0; i < kSlots; ++i) {
        const auto kind = draw_experiment_start(loop_rng, draw);
        if (kind && i + Experiment{i, *kind}.probes() <= kSlots) expected.push_back({i, *kind});
    }
    ASSERT_EQ(d.experiments.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(d.experiments[i].start_slot, expected[i].start_slot);
        EXPECT_EQ(d.experiments[i].kind, expected[i].kind);
    }
    EXPECT_EQ(designer_rng.next_u64(), loop_rng.next_u64());
}

TEST(ProbeProcess, DeterministicGivenSeed) {
    ProbeProcessConfig cfg;
    cfg.p = 0.4;
    cfg.improved = true;
    Rng rng1{47};
    Rng rng2{47};
    const auto d1 = design_probe_process(rng1, 10'000, cfg);
    const auto d2 = design_probe_process(rng2, 10'000, cfg);
    ASSERT_EQ(d1.experiments.size(), d2.experiments.size());
    for (std::size_t i = 0; i < d1.experiments.size(); ++i) {
        EXPECT_EQ(d1.experiments[i].start_slot, d2.experiments[i].start_slot);
        EXPECT_EQ(d1.experiments[i].kind, d2.experiments[i].kind);
    }
    EXPECT_EQ(d1.probe_slots, d2.probe_slots);
}

TEST(ProbeProcess, StartDrawOrder) {
    // One Bernoulli(p) draw per slot; the kind draw follows only a start
    // under the improved design.  Every caller's Rng position rests on this.
    for (const bool improved : {false, true}) {
        ProbeProcessConfig cfg;
        cfg.p = 0.35;
        cfg.improved = improved;
        cfg.extended_fraction = 0.25;
        const StartThresholds draw{cfg};
        Rng shared{90};
        Rng manual{90};
        for (int i = 0; i < 2'000; ++i) {
            const auto kind = draw_experiment_start(shared, draw);
            std::optional<ExperimentKind> expected;
            if (manual.bernoulli(cfg.p)) {
                expected = improved && manual.bernoulli(cfg.extended_fraction)
                               ? ExperimentKind::extended
                               : ExperimentKind::basic;
            }
            ASSERT_EQ(kind, expected) << "draw " << i << " improved=" << improved;
        }
        EXPECT_EQ(shared.next_u64(), manual.next_u64());
    }
}

TEST(ProbeProcess, StartDrawHonoursDegenerateProbabilities) {
    ProbeProcessConfig cfg;
    cfg.p = 1.0;
    cfg.improved = true;
    Rng rng{91};
    cfg.extended_fraction = 1.0;
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(draw_experiment_start(rng, StartThresholds{cfg}), ExperimentKind::extended);
    }
    cfg.extended_fraction = 0.0;
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(draw_experiment_start(rng, StartThresholds{cfg}), ExperimentKind::basic);
    }
    // At p = 1 a basic design starts at every slot that fits the window.
    cfg.improved = false;
    const auto d = design_probe_process(rng, 50, cfg);
    EXPECT_EQ(d.experiments.size(), 49u);
}

TEST(ScoreExperiments, EncodesMarksInOrder) {
    std::vector<Experiment> exps{{10, ExperimentKind::basic}, {20, ExperimentKind::extended}};
    const auto results = score_experiments(exps, [](SlotIndex s) { return s == 11 || s == 20; });
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].code, 0b01);   // slot 10 clear, 11 congested
    EXPECT_EQ(results[1].code, 0b100);  // slot 20 congested, 21/22 clear
}

TEST(ScoreExperiments, DeterministicGivenDesignAndMarks) {
    Rng rng1{8};
    Rng rng2{8};
    ProbeProcessConfig cfg;
    cfg.p = 0.4;
    const auto d1 = design_probe_process(rng1, 10'000, cfg);
    const auto d2 = design_probe_process(rng2, 10'000, cfg);
    ASSERT_EQ(d1.experiments.size(), d2.experiments.size());
    for (std::size_t i = 0; i < d1.experiments.size(); ++i) {
        EXPECT_EQ(d1.experiments[i].start_slot, d2.experiments[i].start_slot);
    }
}

// The designer appends each experiment's slots past the current back()
// instead of sorting; this holds it to the sort + unique it replaced, over
// random configs including the degenerate window lengths.
TEST(ProbeProcess, AppendedSlotsMatchSortUniqueOracle) {
    Rng meta{0x5107};
    for (int trial = 0; trial < 400; ++trial) {
        ProbeProcessConfig cfg;
        cfg.p = trial % 10 == 0 ? 1.0 : 1.0 - meta.uniform01();  // (0, 1]
        cfg.improved = trial % 2 == 1;
        cfg.extended_fraction = std::array{0.0, 0.5, 1.0}[static_cast<std::size_t>(trial % 3)];
        const SlotIndex slots = trial % 5 < 4 ? trial % 5 : meta.uniform_int(4, 3'000);
        const std::uint64_t seed = meta.next_u64();

        Rng rng{seed};
        const ProbeDesign d = design_probe_process(rng, slots, cfg);

        Rng oracle_rng{seed};
        std::vector<Experiment> experiments;
        std::vector<SlotIndex> probe_slots;
        for (SlotIndex i = 0; i < slots; ++i) {
            const auto kind = double_start_draw(oracle_rng, cfg);
            if (!kind) continue;
            const Experiment e{i, *kind};
            if (i + e.probes() > slots) continue;
            experiments.push_back(e);
            for (int k = 0; k < e.probes(); ++k) probe_slots.push_back(i + k);
        }
        std::sort(probe_slots.begin(), probe_slots.end());
        probe_slots.erase(std::unique(probe_slots.begin(), probe_slots.end()), probe_slots.end());

        ASSERT_EQ(d.experiments.size(), experiments.size()) << "trial " << trial;
        for (std::size_t i = 0; i < experiments.size(); ++i) {
            ASSERT_EQ(d.experiments[i].start_slot, experiments[i].start_slot) << "trial " << trial;
            ASSERT_EQ(d.experiments[i].kind, experiments[i].kind) << "trial " << trial;
        }
        ASSERT_EQ(d.probe_slots, probe_slots) << "trial " << trial << " slots " << slots;
        EXPECT_EQ(rng.next_u64(), oracle_rng.next_u64()) << "trial " << trial;
    }
}

}  // namespace
}  // namespace bb::core

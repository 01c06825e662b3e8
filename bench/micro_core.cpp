// google-benchmark microbenchmarks for the estimation core: how cheaply a
// measurement host can run the BADABING pipeline (design, marking, tally,
// estimation) — relevant to §7's note on commodity-host limitations.
#include <benchmark/benchmark.h>

#include "core/estimators.h"
#include "core/marking.h"
#include "core/probe_process.h"
#include "core/synthetic.h"
#include "util/rng.h"

namespace {

using namespace bb;
using namespace bb::core;

void BM_DesignProbeProcess(benchmark::State& state) {
    const auto slots = static_cast<SlotIndex>(state.range(0));
    ProbeProcessConfig cfg;
    cfg.p = 0.3;
    cfg.improved = true;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        Rng rng{seed++};
        auto design = design_probe_process(rng, slots, cfg);
        benchmark::DoNotOptimize(design.experiments.data());
    }
    state.SetItemsProcessed(state.iterations() * slots);
}
BENCHMARK(BM_DesignProbeProcess)->Arg(10'000)->Arg(180'000);

void BM_ScoreAndEstimate(benchmark::State& state) {
    const auto slots = static_cast<SlotIndex>(state.range(0));
    Rng rng{7};
    const auto series = synth_congestion_series(rng, slots, 14.0, 986.0);
    ProbeProcessConfig cfg;
    cfg.p = 0.3;
    cfg.improved = true;
    const auto design = design_probe_process(rng, slots, cfg);
    const auto obs =
        observe_with_fidelity(design.experiments, series, FidelityModel{1.0, 1.0}, rng);
    for (auto _ : state) {
        StateCounts counts;
        for (const auto& r : obs) counts.add(r);
        auto f = estimate_frequency(counts);
        auto d = estimate_duration_improved(counts);
        benchmark::DoNotOptimize(f.value);
        benchmark::DoNotOptimize(d.slots);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(obs.size()));
}
BENCHMARK(BM_ScoreAndEstimate)->Arg(180'000);

void BM_CongestionMarking(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng{11};
    std::vector<ProbeOutcome> probes;
    probes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ProbeOutcome po;
        po.slot = static_cast<SlotIndex>(i);
        po.send_time = milliseconds(5) * static_cast<std::int64_t>(i);
        po.packets_sent = 3;
        po.packets_lost = rng.bernoulli(0.01) ? 1 : 0;
        po.max_owd = milliseconds(50) + microseconds(rng.uniform_int(0, 100'000));
        po.any_received = true;
        probes.push_back(po);
    }
    MarkingConfig cfg;
    for (auto _ : state) {
        CongestionMarker marker{cfg};
        auto marks = marker.mark(probes);
        benchmark::DoNotOptimize(marks.data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CongestionMarking)->Arg(10'000)->Arg(100'000);

void BM_SynthSeries(benchmark::State& state) {
    const auto slots = static_cast<SlotIndex>(state.range(0));
    std::uint64_t seed = 3;
    for (auto _ : state) {
        Rng rng{seed++};
        auto series = synth_congestion_series(rng, slots, 14.0, 986.0);
        benchmark::DoNotOptimize(series.size());
    }
    state.SetItemsProcessed(state.iterations() * slots);
}
BENCHMARK(BM_SynthSeries)->Arg(1'000'000);

}  // namespace

BENCHMARK_MAIN();

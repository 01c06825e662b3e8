// google-benchmark microbenchmarks for the simulation substrate: raw event
// throughput of the scheduler and packets/second through the bottleneck.
#include <benchmark/benchmark.h>

#include "core/run_hasher.h"
#include "scenarios/experiment.h"
#include "sim/link.h"
#include "sim/scheduler.h"

namespace {

using namespace bb;

// Self-rescheduling tick with a small capture — stays in the scheduler's
// inline event buffer, zero allocations in steady state.
struct Tick {
    sim::Scheduler* sched;
    std::int64_t* count;
    std::int64_t limit;
    void operator()() const {
        if (++*count < limit) sched->schedule_after(microseconds(1), Tick{*this});
    }
};

void BM_SchedulerEventThroughput(benchmark::State& state) {
    for (auto _ : state) {
        sim::Scheduler sched;
        std::int64_t counter = 0;
        sched.schedule_at(TimeNs::zero(), Tick{&sched, &counter, state.range(0)});
        sched.run();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerEventThroughput)->Arg(100'000);

// The TCP RTO pattern: schedule a far-out timer, cancel it, repeat.  With
// generation counters both operations are O(1) and the heap compacts itself,
// so long-horizon churn cannot grow memory.
void BM_SchedulerCancelChurn(benchmark::State& state) {
    for (auto _ : state) {
        sim::Scheduler sched;
        for (std::int64_t i = 0; i < state.range(0); ++i) {
            const sim::EventId id = sched.schedule_after(seconds_i(60), [] {});
            sched.cancel(id);
        }
        sched.run();
        benchmark::DoNotOptimize(sched.executed_events());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerCancelChurn)->Arg(100'000);

void BM_BottleneckPacketThroughput(benchmark::State& state) {
    for (auto _ : state) {
        sim::Scheduler sched;
        sim::CountingSink sink;
        sim::BottleneckQueue::Config cfg;
        cfg.rate_bps = 1'000'000'000;
        cfg.prop_delay = milliseconds(1);
        cfg.capacity_bytes = 1'000'000;
        sim::BottleneckQueue queue{sched, cfg, sink};
        const std::int64_t n = state.range(0);
        for (std::int64_t i = 0; i < n; ++i) {
            sched.schedule_at(microseconds(i), [&queue, i] {
                sim::Packet p;
                p.id = static_cast<std::uint64_t>(i);
                p.size_bytes = 1500;
                queue.accept(p);
            });
        }
        sched.run();
        benchmark::DoNotOptimize(sink.packets());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BottleneckPacketThroughput)->Arg(100'000);

void BM_FullScenarioSecondPerSecond(benchmark::State& state) {
    // Simulated seconds of the CBR scenario per wall-clock iteration.
    for (auto _ : state) {
        scenarios::TestbedConfig tb;
        tb.bottleneck_rate_bps = 30'000'000;
        scenarios::WorkloadConfig wl;
        wl.kind = scenarios::TrafficKind::cbr_uniform;
        wl.duration = seconds_i(state.range(0));
        wl.seed = 5;
        // bb-lint: allow(no-adhoc-scenario) timed loop; parsing a spec would move its baseline
        scenarios::Experiment exp{tb, wl};
        exp.run();
        benchmark::DoNotOptimize(exp.testbed().sched().executed_events());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.SetLabel("items = simulated seconds");
}
BENCHMARK(BM_FullScenarioSecondPerSecond)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_FullScenarioHashed(benchmark::State& state) {
    // Same scenario with the run-state hash chain folding every dispatch, rng
    // draw, verdict, and report.  bench_compare.py gates this case at <= 5%
    // over BM_FullScenarioSecondPerSecond within the same run.
    for (auto _ : state) {
        core::RunHasher hasher;
        core::HashScope scope{hasher};
        scenarios::TestbedConfig tb;
        tb.bottleneck_rate_bps = 30'000'000;
        scenarios::WorkloadConfig wl;
        wl.kind = scenarios::TrafficKind::cbr_uniform;
        wl.duration = seconds_i(state.range(0));
        wl.seed = 5;
        // bb-lint: allow(no-adhoc-scenario) timed loop; parsing a spec would move its baseline
        scenarios::Experiment exp{tb, wl};
        exp.run();
        benchmark::DoNotOptimize(exp.testbed().sched().executed_events());
        benchmark::DoNotOptimize(hasher.digest());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.SetLabel("items = simulated seconds");
}
BENCHMARK(BM_FullScenarioHashed)->Arg(30)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

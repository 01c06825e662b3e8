#include "scenarios/replica_runner.h"

#include <algorithm>
#include <optional>

#include "obs/trace.h"
#include "util/contract.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace bb::scenarios {

namespace {

// One replica: build and simulate its world once, then analyse the probe
// outcomes under every entry of `analyses` into results[a][index].  The
// caller sizes `results`, so a worker allocates no result storage that
// outlives its replica.
void run_one(const ReplicaPlan& plan, const std::vector<ReplicaAnalysis>& analyses,
             std::size_t index, std::uint64_t seed,
             std::vector<std::vector<ReplicaResult>>& results) {
    const obs::Span span{"replica", "scenarios", "replica",
                         static_cast<std::int64_t>(index)};
    // The hash scope covers the replica's world construction, run and truth
    // on whichever worker thread it landed on; each analysis below folds into
    // its own copy of that chain.  The main thread never gets a scope, so
    // aggregation bootstrap draws stay out of the digest by construction.
    std::shared_ptr<core::RunHasher> hasher;
    std::optional<core::HashScope> hash_scope;
    if (plan.hashing) {
        hasher = std::make_shared<core::RunHasher>(
            index == 0 ? plan.hash_trace_capacity : 0);
        hash_scope.emplace(*hasher);
    }
    TestbedConfig tb = plan.testbed;
    // RED's randomized drops get their own stream so queue and workload
    // randomness stay decoupled within a replica.
    tb.seed = seed ^ 0x5EEDULL;
    WorkloadConfig wl = plan.workload;
    wl.seed = seed;

    Experiment exp{tb, wl, plan.truth};
    auto& tool = exp.add_badabing(plan.probe);
    // Replica 0 carries the sim-time series when recording is requested; the
    // recorder only reads simulation state, so every estimate below is
    // bit-identical with recording on or off.
    std::unique_ptr<ExperimentRecorder> recording;
    if (plan.recording.enabled && index == 0) {
        recording = std::make_unique<ExperimentRecorder>(exp, plan.recording);
    }
    exp.run();
    if (recording) recording->finish();

    ReplicaResult sim;
    sim.index = index;
    sim.seed = seed;
    sim.truth = exp.truth();
    hash_scope.reset();
    sim.offered_load = tool.offered_load_fraction(tb.bottleneck_rate_bps);
    const auto& queue = exp.testbed().bottleneck();
    for (const auto& hop : exp.testbed().upstream_hops()) sim.upstream_drops += hop->drops();
    sim.queue_drops = queue.drops() + sim.upstream_drops;
    sim.episodes = sim.truth.episodes;
    const std::uint64_t ge_drops = exp.testbed().ge() ? exp.testbed().ge()->drops() : 0;
    if (queue.arrivals() > 0) {
        sim.path_loss_rate = static_cast<double>(queue.drops() + ge_drops) /
                             static_cast<double>(queue.arrivals());
    }
    if (auto* obs = exp.testbed().qbit_observer()) {
        sim.passive_loss_rate = obs->loss_rate();
        sim.qbit_merged_blocks = obs->merged_blocks();
    }
    if (recording) sim.series = recording->share();

    for (std::size_t a = 0; a < analyses.size(); ++a) {
        ReplicaResult& r = results[a][index];
        r = sim;
        std::shared_ptr<core::RunHasher> chain;
        std::optional<core::HashScope> chain_scope;
        if (hasher) {
            chain = std::make_shared<core::RunHasher>(*hasher);
            chain_scope.emplace(*chain);
        }
        const ReplicaAnalysis& analysis = analyses[a];
        const core::MarkingConfig marking =
            analysis.marking ? *analysis.marking : exp.default_marking(plan.probe.p);
        r.result = tool.analyze(marking, analysis.estimator);
        if (chain) {
            r.state_hash = chain->digest();
            r.hash_records = chain->records();
            if (index == 0 && plan.hash_trace_capacity > 0) r.hash_trace = chain;
        }
    }
}

AggregateStat collapse(const std::vector<double>& values, const ReplicaRunner::Config& cfg,
                       Rng& rng) {
    AggregateStat s;
    RunningStats stats;
    for (double v : values) stats.add(v);
    s.mean = stats.mean();
    s.stddev = stats.stddev();
    s.ci = core::bootstrap_mean(values, cfg.bootstrap_replicates, cfg.confidence, rng);
    return s;
}

}  // namespace

std::vector<std::uint64_t> ReplicaRunner::replica_seeds(std::uint64_t master_seed,
                                                        std::size_t n) {
    Rng master{master_seed};
    std::vector<std::uint64_t> seeds;
    seeds.reserve(n);
    for (std::size_t i = 0; i < n; ++i) seeds.push_back(master.fork_seed(i));
    return seeds;
}

std::vector<ReplicaResult> ReplicaRunner::run(const ReplicaPlan& plan) const {
    return std::move(run(plan, {plan.analysis}).front());
}

std::vector<std::vector<ReplicaResult>> ReplicaRunner::run(
    const ReplicaPlan& plan, const std::vector<ReplicaAnalysis>& analyses) const {
    const auto seeds = replica_seeds(cfg_.master_seed, cfg_.replicas);
    std::vector<std::vector<ReplicaResult>> results(analyses.size(),
                                                    std::vector<ReplicaResult>(cfg_.replicas));
    auto run_replica = [&](std::size_t i) { run_one(plan, analyses, i, seeds[i], results); };

    // Never spin up more workers than replicas.
    const std::size_t want = cfg_.threads == 0 ? ThreadPool::default_threads() : cfg_.threads;
    const std::size_t threads = std::min(want, cfg_.replicas);
    if (threads <= 1) {
        for (std::size_t i = 0; i < cfg_.replicas; ++i) run_replica(i);
        return results;
    }

    ThreadPool pool{threads};
    pool.for_each_index(cfg_.replicas, run_replica);
    // Bit-identical aggregates at any thread count rest on every worker
    // having written its own slots with its own positional seed.
    for (const auto& per_analysis : results) {
        for (std::size_t i = 0; i < per_analysis.size(); ++i) {
            BB_DCHECK_MSG(per_analysis[i].index == i && per_analysis[i].seed == seeds[i],
                          "replica runner: replica result landed in the wrong slot");
        }
    }
    return results;
}

std::uint64_t ReplicaRunner::merged_state_hash(const std::vector<ReplicaResult>& results) {
    std::vector<std::uint64_t> digests;
    digests.reserve(results.size());
    for (const auto& r : results) digests.push_back(r.state_hash);
    return core::RunHasher::merge(digests);
}

AggregateRow ReplicaRunner::aggregate(const ReplicaPlan& plan,
                                      const std::vector<ReplicaResult>& results) const {
    const obs::Span span{"aggregate", "scenarios"};
    AggregateRow row;
    row.p = plan.probe.p;
    row.replicas = results.size();

    std::vector<double> true_f, est_f, true_d, est_d, load;
    true_f.reserve(results.size());
    est_f.reserve(results.size());
    true_d.reserve(results.size());
    est_d.reserve(results.size());
    load.reserve(results.size());
    for (const auto& r : results) {
        true_f.push_back(r.truth.frequency);
        est_f.push_back(r.est_frequency());
        true_d.push_back(r.truth.mean_duration_s);
        est_d.push_back(r.est_duration_s(plan.probe.slot_width));
        load.push_back(r.offered_load);
    }

    // One serial bootstrap stream per aggregation keeps the row a pure
    // function of (results order, master_seed) — thread count cannot leak in.
    Rng rng{cfg_.master_seed ^ 0xB007B007ULL};
    row.true_frequency = collapse(true_f, cfg_, rng);
    row.est_frequency = collapse(est_f, cfg_, rng);
    row.true_duration_s = collapse(true_d, cfg_, rng);
    row.est_duration_s = collapse(est_d, cfg_, rng);
    row.offered_load = collapse(load, cfg_, rng);
    return row;
}

}  // namespace bb::scenarios

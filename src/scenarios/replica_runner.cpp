#include "scenarios/replica_runner.h"

#include <algorithm>
#include <optional>

#include "core/probe_process.h"
#include "core/streaming.h"
#include "core/synthetic.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "util/contract.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace bb::scenarios {

namespace {

// The synthetic replica's alternating-renewal process (mean episode and gap
// lengths, in slots) and the slot cadence of its RSS snapshot log line.
constexpr double kStreamMeanOnSlots = 20.0;
constexpr double kStreamMeanOffSlots = 180.0;
constexpr std::int64_t kSnapshotSlots = 10'000'000;

// Replica `index`'s hash chain when plan.hashing is on (replica 0 keeps the
// trace ring), else null.
std::shared_ptr<core::RunHasher> replica_hasher(const ReplicaPlan& plan, std::size_t index) {
    if (!plan.hashing) return nullptr;
    return std::make_shared<core::RunHasher>(index == 0 ? plan.hash_trace_capacity : 0);
}

// Fill results[a][index] from `base` and `analyze(analyses[a], result)` for
// every analysis, each folding into its own copy of the replica's chain.
template <typename Analyze>
void analyse_each(const ReplicaPlan& plan, const std::vector<ReplicaAnalysis>& analyses,
                  const ReplicaResult& base, const std::shared_ptr<core::RunHasher>& hasher,
                  std::vector<std::vector<ReplicaResult>>& results, Analyze&& analyze) {
    for (std::size_t a = 0; a < analyses.size(); ++a) {
        ReplicaResult& r = results[a][base.index];
        r = base;
        std::shared_ptr<core::RunHasher> chain;
        std::optional<core::HashScope> chain_scope;
        if (hasher) {
            chain = std::make_shared<core::RunHasher>(*hasher);
            chain_scope.emplace(*chain);
        }
        analyze(analyses[a], r.result);
        if (chain) {
            r.state_hash = chain->digest();
            r.hash_records = chain->records();
            if (base.index == 0 && plan.hash_trace_capacity > 0) r.hash_trace = chain;
        }
    }
}

// The prober's share of the bottleneck over the run, from the bytes it sent.
double load_fraction(std::int64_t bytes, const ScenarioSpec& spec) {
    const double link_bytes = static_cast<double>(spec.testbed.bottleneck_rate_bps) / 8.0 *
                              spec.workload.duration.to_seconds();
    return link_bytes > 0 ? static_cast<double>(bytes) / link_bytes : 0.0;
}

// One simulated replica: build_experiment on the plan's spec with the
// replica's seeds, simulate once, then analyse a BADABING prober's outcomes
// under every entry of `analyses` into results[a][index] (other tools carry
// their one result into every entry).  The caller sizes `results`, so a
// worker allocates no result storage that outlives its replica.
void run_one(const ReplicaPlan& plan, const std::vector<ReplicaAnalysis>& analyses,
             std::size_t index, std::uint64_t seed,
             std::vector<std::vector<ReplicaResult>>& results) {
    const obs::Span span{"replica", "scenarios", "replica",
                         static_cast<std::int64_t>(index)};
    // The hash scope covers the replica's world construction, run and truth
    // on whichever worker thread it landed on; each analysis below folds into
    // its own copy of that chain.  The main thread never gets a scope, so
    // aggregation bootstrap draws stay out of the digest by construction.
    const std::shared_ptr<core::RunHasher> hasher = replica_hasher(plan, index);
    std::optional<core::HashScope> hash_scope;
    if (hasher) hash_scope.emplace(*hasher);
    ScenarioSpec spec = plan.spec;
    spec.workload.seed = seed;
    // Randomized queue drops (RED/PIE/GE) get their own stream so queue and
    // workload randomness stay decoupled within a replica.
    spec.testbed.seed = seed ^ 0x5EEDULL;
    const BuiltExperiment built = build_experiment(spec);
    Experiment& exp = *built.experiment;
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
    sim.tool = spec.tool;
    sim.truth = exp.truth();
    hash_scope.reset();
    if (built.badabing != nullptr) {
        sim.offered_load = built.badabing->offered_load_fraction(spec.testbed.bottleneck_rate_bps);
        if (plan.probe_log && index == 0) {
            sim.probe_log = std::make_shared<const ProbeLog>(
                ProbeLog{built.badabing->outcomes(), built.badabing->design().experiments});
        }
    } else if (built.zing != nullptr) {
        sim.zing = built.zing->result();
        sim.offered_load = load_fraction(built.zing->bytes_sent(), spec);
        // ZING has no streaming analyzer; its totals are tool-level counters
        // so the metrics export covers this prober too.
        obs::counter("probes.zing.probes_sent").inc(sim.zing.sent);
        obs::counter("probes.zing.probes_lost").inc(sim.zing.lost);
    } else if (built.sting != nullptr) {
        sim.sting = built.sting->result();
        sim.offered_load = load_fraction(
            static_cast<std::int64_t>(sim.sting.data_packets + sim.sting.retransmissions) *
                spec.sting.segment_bytes,
            spec);
    }
    const auto& queue = exp.testbed().bottleneck();
    for (const auto& hop : exp.testbed().upstream_hops()) sim.upstream_drops += hop->drops();
    sim.queue_drops = queue.drops() + sim.upstream_drops;
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

    analyse_each(plan, analyses, sim, hasher, results,
                 [&](const ReplicaAnalysis& analysis, probes::BadabingResult& out) {
                     if (built.badabing == nullptr) return;
                     const core::MarkingConfig marking =
                         analysis.marking ? *analysis.marking
                                          : exp.default_marking(spec.badabing.p);
                     out = built.badabing->analyze(marking, analysis.estimator);
                 });
}

// One synthetic replica: generator -> streaming scorer -> online tallies, one
// slot at a time, so no series, design or report vector is materialized and
// resident memory does not grow with the slot count.  Every analysis is an
// evaluation of the one stream's tallies under its estimator options.
void run_stream_one(const ReplicaPlan& plan, const std::vector<ReplicaAnalysis>& analyses,
                    std::size_t index, std::uint64_t seed,
                    std::vector<std::vector<ReplicaResult>>& results) {
    const obs::Span span{"replica", "scenarios", "replica",
                         static_cast<std::int64_t>(index)};
    // The generator's and the scorer's Rng draws and every report fold.
    const std::shared_ptr<core::RunHasher> hasher = replica_hasher(plan, index);
    std::optional<core::HashScope> hash_scope;
    if (hasher) hash_scope.emplace(*hasher);
    const std::int64_t slots = stream_slots(plan);
    const probes::BadabingConfig& probe = plan.spec.badabing;
    core::ProbeProcessConfig pcfg;
    pcfg.p = probe.p;
    pcfg.improved = probe.improved;
    pcfg.extended_fraction = probe.extended_fraction;
    core::SyntheticSeriesGen gen{Rng{seed ^ 0x5EED5ULL}, kStreamMeanOnSlots,
                                 kStreamMeanOffSlots};
    core::SeriesTruthAccumulator truth;
    core::StreamingAnalyzer analyzer;
    core::StreamingExperimentScorer scorer{Rng{seed ^ 0xBADA0ULL}, pcfg, analyzer};
    for (std::int64_t s = 0; s < slots; ++s) {
        const bool congested = gen.next();
        truth.consume(congested);
        scorer.step(congested);
        // Keyed on slot count (not wall clock) so the log stays deterministic.
        if ((s + 1) % kSnapshotSlots == 0) {
            obs::logf(obs::LogLevel::info,
                      "replica %zu: snapshot slot %lld/%lld: reports_scored %llu, "
                      "max RSS %lld KiB",
                      index, static_cast<long long>(s + 1), static_cast<long long>(slots),
                      static_cast<unsigned long long>(analyzer.reports()),
                      static_cast<long long>(obs::process_stats().max_rss_kb));
        }
    }
    hash_scope.reset();

    const core::SeriesTruth t = truth.finalize();
    ReplicaResult stream;
    stream.index = index;
    stream.seed = seed;
    stream.truth.frequency = t.frequency;
    stream.truth.mean_duration_s = t.mean_duration_slots * probe.slot_width.to_seconds();
    stream.truth.episodes = t.episodes;
    stream.result.counts = analyzer.counts();
    stream.result.experiments = scorer.experiments_completed();
    analyse_each(plan, analyses, stream, hasher, results,
                 [&](const ReplicaAnalysis& analysis, probes::BadabingResult& out) {
                     const auto res =
                         core::StreamingAnalyzer::evaluate(out.counts, analysis.estimator);
                     out.frequency = res.frequency;
                     out.duration_basic = res.duration_basic;
                     out.duration_improved = res.duration_improved;
                     out.validation = res.validation;
                 });
}

// Every aggregate's CI: a 95% percentile bootstrap over 1000 resamples.
constexpr std::size_t kBootstrapReplicates = 1000;
constexpr double kConfidence = 0.95;

AggregateStat collapse(const std::vector<double>& values, Rng& rng) {
    AggregateStat s;
    RunningStats stats;
    for (double v : values) stats.add(v);
    s.mean = stats.mean();
    s.stddev = stats.stddev();
    s.ci = core::bootstrap_mean(values, kBootstrapReplicates, kConfidence, rng);
    return s;
}

// Doubles hold every count below 2^53 exactly.
std::optional<double> tally(std::uint64_t n) { return static_cast<double>(n); }

// A BADABING replica's value; other tools do not make it.
std::optional<double> badabing(const ReplicaResult& r, double v) {
    return r.tool == ScenarioSpec::ProbeTool::badabing ? std::optional{v} : std::nullopt;
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

std::int64_t stream_slots(const ReplicaPlan& plan) noexcept {
    const probes::BadabingConfig& probe = plan.spec.badabing;
    return probe.total_slots > 0 ? static_cast<std::int64_t>(probe.total_slots)
                                 : plan.spec.workload.duration / probe.slot_width;
}

std::span<const Metric> metrics() noexcept {
    using Tool = ScenarioSpec::ProbeTool;
    using R = const ReplicaResult&;
    using Value = std::optional<double>;
    using enum Metric::Kind;
    using enum Metric::Output;
    using enum Metric::Role;
    static const Metric kMetrics[] = {
        {"true_frequency", ratio, both, truth,
         [](R r, TimeNs) -> Value { return r.truth.frequency; }},
        {"est_frequency", ratio, both, estimate, [](R r, TimeNs) -> Value {
             if (r.tool == Tool::zing) return r.zing.loss_frequency;
             if (r.tool == Tool::sting) return r.sting.forward_loss_rate;
             return badabing(r, r.result.frequency.value);
         }},
        {"true_duration_s", seconds, both, truth,
         [](R r, TimeNs) -> Value { return r.truth.mean_duration_s; }},
        // An invalid basic D̂ is 0, not null, per replica and in the aggregate:
        // readers take every replica's value as a number, and 0 as "none".
        {"est_duration_s", seconds, both, estimate, [](R r, TimeNs slot_width) -> Value {
             const core::DurationEstimate& d = r.result.duration_basic;
             if (r.tool == Tool::zing) return r.zing.mean_duration_s;
             return badabing(r, d.valid ? d.seconds(slot_width) : 0.0);
         }},
        {"offered_load", ratio, aggregate, other,
         [](R r, TimeNs) -> Value { return r.offered_load; }},
        // The §5.3 improved D̂ and its r̂, where the estimate is valid.
        {"est_duration_improved_s", seconds, both, estimate, [](R r, TimeNs slot_width) {
             const core::DurationEstimate& d = r.result.duration_improved;
             return d.valid ? Value{d.seconds(slot_width)} : std::nullopt;
         }},
        {"r_hat", ratio, replica, other, [](R r, TimeNs) {
             const core::DurationEstimate& d = r.result.duration_improved;
             return d.valid ? d.r_hat : std::nullopt;
         }},
        {"episodes", count, replica, other, [](R r, TimeNs) { return tally(r.truth.episodes); }},
        {"queue_drops", count, replica, other, [](R r, TimeNs) { return tally(r.queue_drops); }},
        {"upstream_drops", count, replica, other,
         [](R r, TimeNs) { return tally(r.upstream_drops); }},
        {"experiments", count, replica, other,
         [](R r, TimeNs) { return badabing(r, static_cast<double>(r.result.experiments)); }},
        {"pair_asymmetry", ratio, replica, other,
         [](R r, TimeNs) { return badabing(r, r.result.validation.pair_asymmetry); }},
        {"path_loss_rate", ratio, replica, other,
         [](R r, TimeNs) -> Value { return r.path_loss_rate; }},
        {"passive_loss_rate", ratio, replica, other,
         [](R r, TimeNs) -> Value { return r.passive_loss_rate; }},
        {"qbit_merged_blocks", count, replica, other,
         [](R r, TimeNs) { return tally(r.qbit_merged_blocks); }},
        // The tools' own tallies.
        {"sent", count, replica, other, [](R r, TimeNs) { return tally(r.zing.sent); }, Tool::zing},
        {"lost", count, replica, other, [](R r, TimeNs) { return tally(r.zing.lost); }, Tool::zing},
        {"loss_runs", count, replica, other, [](R r, TimeNs) { return tally(r.zing.loss_runs); },
         Tool::zing},
        {"max_run_length", count, replica, other,
         [](R r, TimeNs) { return tally(r.zing.max_run_length); }, Tool::zing},
        {"bursts", count, replica, other,
         [](R r, TimeNs) { return tally(r.sting.bursts_completed); }, Tool::sting},
        {"segments", count, replica, other, [](R r, TimeNs) { return tally(r.sting.data_packets); },
         Tool::sting},
        {"holes", count, replica, other, [](R r, TimeNs) { return tally(r.sting.holes_filled); },
         Tool::sting},
    };
    return kMetrics;
}

std::optional<AggregateStat> AggregateRow::stat(std::string_view key) const {
    for (const auto& [m, s] : stats) {
        if (key == m->key) return s;
    }
    return std::nullopt;
}

std::vector<ReplicaResult> ReplicaRunner::run(const ReplicaPlan& plan) const {
    return std::move(run(plan, {plan.analysis}).front());
}

std::vector<std::vector<ReplicaResult>> ReplicaRunner::run(
    const ReplicaPlan& plan, const std::vector<ReplicaAnalysis>& analyses) const {
    const auto seeds = replica_seeds(cfg_.master_seed, cfg_.replicas);
    std::vector<std::vector<ReplicaResult>> results(analyses.size(),
                                                    std::vector<ReplicaResult>(cfg_.replicas));
    const auto one = plan.spec.streaming ? run_stream_one : run_one;
    auto run_replica = [&](std::size_t i) { one(plan, analyses, i, seeds[i], results); };

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
    const TimeNs slot_width = plan.spec.badabing.slot_width;
    AggregateRow row;
    // One serial bootstrap stream per aggregation keeps the row a pure
    // function of (results order, master_seed) — thread count cannot leak in.
    // A metric no replica has draws nothing.
    Rng rng{cfg_.master_seed ^ 0xB007B007ULL};
    std::vector<double> values;
    for (const Metric& m : metrics()) {
        if (!m.aggregated()) continue;
        values.clear();
        for (const auto& r : results) {
            if (m.only && r.tool != *m.only) continue;
            if (const auto v = m.value(r, slot_width)) values.push_back(*v);
        }
        row.stats.emplace_back(&m, values.empty() ? std::nullopt
                                                  : std::optional{collapse(values, rng)});
    }
    return row;
}

ReplicaPlan replica_plan_from(const ScenarioSpec& spec) {
    ReplicaPlan plan;
    plan.spec = spec;
    if (spec.marking_alpha || spec.marking_tau) plan.analysis.marking = marking_for(spec);
    plan.analysis.estimator = spec.estimator;
    return plan;
}

ReplicaRunner::Config runner_config_from(const ScenarioSpec& spec) {
    ReplicaRunner::Config rc;
    rc.replicas = spec.replicas;
    rc.threads = spec.threads;
    rc.master_seed = spec.seed;
    return rc;
}

}  // namespace bb::scenarios

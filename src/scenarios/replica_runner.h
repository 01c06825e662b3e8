// Parallel multi-replica experiment execution (Monte Carlo over seeds).
//
// The paper's evaluation reports point estimates from single 15-minute runs,
// yet §5.2 derives Var(F̂) and Figure 9 studies estimator sensitivity —
// variance is the story.  ReplicaRunner runs N independent copies of one
// experiment plan, each with its own RNG stream derived *positionally* from
// (master_seed, replica_index) via Rng::fork, and aggregates the per-replica
// results into mean / stddev / percentile-bootstrap confidence intervals.
//
// A replica is simulated or, for a probe.streaming spec, synthetic.  A
// simulated replica is build_experiment() on the plan's spec with the
// replica's seeds (workload.seed = s, testbed.seed = s ^ 0x5EED), probed by
// whatever probe.tool the spec names: BADABING, ZING, STING or none (truth
// only).  A synthetic replica is the §5.2.1 alternating-renewal congestion
// series scored slot by slot by the BADABING design in O(1) memory, where
// the truth is exact.  All land in the same ReplicaResult and aggregate the
// same way.
//
// Concurrency model: scenarios::Experiment is non-copyable and strictly
// single-threaded; parallelism is across replicas only.  Each replica builds
// its whole world (testbed, workload, prober, or synthetic stream) inside its
// task, and results are stored by replica index.  Because seeds are computed
// serially before any task is submitted and aggregation walks results in
// index order, the output is bit-identical for any thread count — the
// scheduler can only change *when* a replica runs, never *what* it computes.
#ifndef BB_SCENARIOS_REPLICA_RUNNER_H
#define BB_SCENARIOS_REPLICA_RUNNER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bootstrap.h"
#include "core/run_hasher.h"
#include "obs/recorder.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"

namespace bb::scenarios {

// How one analysis reads a BADABING replica's probe outcomes: the marking
// rule (unset = the paper's tau/alpha for the spec's p) and the estimator
// options.  Other tools have nothing to analyse.
struct ReplicaAnalysis {
    std::optional<core::MarkingConfig> marking;
    core::EstimatorOptions estimator{};
};

// Everything one replica needs.  `spec.seed` is not read: the runner's
// master seed derives each replica's own seeds.
struct ReplicaPlan {
    ScenarioSpec spec;
    ReplicaAnalysis analysis{};
    // Sim-time series recording.  Only replica 0 records (replica i always
    // computes the same world regardless of thread count, so the recorded
    // series stays bit-identical at any parallelism); sampling reads state
    // without mutating it, so estimates are unchanged.
    SimRecordingConfig recording{};
    // Determinism hash chain (DESIGN.md §14): each replica folds its whole
    // build+run+analyze into a core::RunHasher scoped to its worker thread,
    // so the per-replica digest — and the merged run digest — is a pure
    // function of the plan, at any thread count.
    bool hashing{false};
    // Bounded trace ring kept by replica 0 for --hash-trace-out (0 = none).
    std::size_t hash_trace_capacity{0};
    // Replica 0 of a simulated BADABING plan keeps its probe outcomes and
    // experiment design (ProbeLog) for --trace / --design.
    bool probe_log{false};
};

// A synthetic replica's length: probe.badabing.total_slots, or the workload
// duration in slots when that is 0.
[[nodiscard]] std::int64_t stream_slots(const ReplicaPlan& plan) noexcept;

// What a BADABING receiver records: every probe's outcome and the
// experiment design, as `bb estimate` reads them back.
struct ProbeLog {
    std::vector<core::ProbeOutcome> outcomes;
    std::vector<core::Experiment> design;
};

struct ReplicaResult {
    std::size_t index{0};
    std::uint64_t seed{0};
    ScenarioSpec::ProbeTool tool{ScenarioSpec::ProbeTool::badabing};
    measure::TruthSummary truth;
    probes::BadabingResult result;   // tool == badabing (simulated or synthetic)
    probes::ZingResult zing;         // tool == zing
    probes::StingResult sting;       // tool == sting
    // The prober's bytes over the bottleneck's capacity for the run (0 for
    // `none` and synthetic replicas).
    double offered_load{0.0};
    // Drops summed across the bottleneck and every upstream hop of this
    // replica's testbed; lets the obs counters be cross-checked against the
    // run summary exactly.
    std::uint64_t queue_drops{0};
    // Path-level extras the sweep engine writes into each cell's replica
    // documents.  Zero when the relevant instrumentation is off, and on a
    // synthetic replica (as are offered_load and queue_drops).
    std::uint64_t upstream_drops{0};  // the upstream hops' share of queue_drops
    double path_loss_rate{0.0};      // (queue + GE drops) / queue arrivals
    double passive_loss_rate{0.0};   // Q-bit observer estimate of the same
    std::uint64_t qbit_merged_blocks{0};
    // Sim-time series (plan.recording; replica 0 only, else nullptr).
    std::shared_ptr<obs::Recorder> series;
    // Probe outcomes and design (plan.probe_log; replica 0 only, else nullptr).
    std::shared_ptr<const ProbeLog> probe_log;
    // Determinism hash chain (plan.hashing): this replica's final digest and
    // record count; the hasher itself rides along on replica 0 when a trace
    // ring was requested (plan.hash_trace_capacity > 0).
    std::uint64_t state_hash{0};
    std::uint64_t hash_records{0};
    std::shared_ptr<core::RunHasher> hash_trace;
};

// One number a replica reports, declared once.  metrics() is the ordered
// list of them: its order is the order of the cell document's replica keys
// and aggregate stats, of the summary CSV's and the `bb sweep` table's
// columns (sweep.h), and of aggregate()'s bootstrap draws.  A metric a
// replica's tool does not make is the extractor returning nothing: null in
// the replica object, left out of the aggregate, which is null (an empty CSV
// field, a blank table cell) when no replica has it.
struct Metric {
    // A count is a JSON integer; the table prints seconds to 3 places.
    enum class Kind { count, ratio, seconds };
    enum class Output { replica, aggregate, both };
    // In the `bb sweep` table an estimate prints its CI and shares the
    // column group of the truth just before it.
    enum class Role { truth, estimate, other };
    const char* key;
    Kind kind;
    Output output;
    Role role;
    std::optional<double> (*value)(const ReplicaResult&, TimeNs slot_width);
    // Written only for this tool's replicas (its own tallies), and absent
    // rather than null for any other; unset = every tool.
    std::optional<ScenarioSpec::ProbeTool> only{};

    [[nodiscard]] bool aggregated() const noexcept { return output != Output::replica; }
};

[[nodiscard]] std::span<const Metric> metrics() noexcept;

// One metric collapsed across replicas.
struct AggregateStat {
    double mean{0.0};
    double stddev{0.0};              // sample stddev across replicas (0 if n < 2)
    core::BootstrapInterval ci;      // percentile bootstrap over replica values
};

// Per-plan aggregate row: the multi-replica analogue of a paper table row.
struct AggregateRow {
    // Each aggregated metric, in metrics() order, and its stat over the
    // replicas that have a value (unset when none has).
    std::vector<std::pair<const Metric*, std::optional<AggregateStat>>> stats;

    [[nodiscard]] std::optional<AggregateStat> stat(std::string_view key) const;
};

class ReplicaRunner {
public:
    struct Config {
        std::size_t replicas{8};
        std::size_t threads{0};      // 0 = hardware concurrency
        std::uint64_t master_seed{7};
    };

    explicit ReplicaRunner(Config cfg) : cfg_{cfg} {}

    // Per-replica seeds: Rng{master}.fork_seed(i) drawn in index order.  A
    // pure function of (master_seed, n) — prefix-stable, so growing n keeps
    // every earlier replica's stream unchanged.
    [[nodiscard]] static std::vector<std::uint64_t> replica_seeds(std::uint64_t master_seed,
                                                                  std::size_t n);

    // Run cfg.replicas independent copies of `plan` across cfg.threads
    // workers.  results[i] always belongs to replica i.
    [[nodiscard]] std::vector<ReplicaResult> run(const ReplicaPlan& plan) const;

    // Simulate each replica of `plan` once and analyse it under every entry
    // of `analyses` (plan.analysis is not used):
    // results[a][i] is replica i under analyses[a].  Each analysis folds
    // into its own copy of the replica's hash chain, taken after simulation
    // and truth, so results[a] — digests included — is bit-identical to
    // run() on a plan carrying analyses[a].
    [[nodiscard]] std::vector<std::vector<ReplicaResult>> run(
        const ReplicaPlan& plan, const std::vector<ReplicaAnalysis>& analyses) const;

    // Merged run digest: per-replica digests folded in replica-index order
    // (core::RunHasher::merge), so the value printed by --state-hash is the
    // same at 1, 4, or 8 threads.  Only meaningful when plan.hashing was on.
    [[nodiscard]] static std::uint64_t merged_state_hash(
        const std::vector<ReplicaResult>& results);

    // Collapse per-replica results (in index order) into an AggregateRow.
    // Deterministic given (results, master_seed); does not depend on how the
    // results were scheduled.
    [[nodiscard]] AggregateRow aggregate(const ReplicaPlan& plan,
                                         const std::vector<ReplicaResult>& results) const;

private:
    Config cfg_;
};

// The multi-replica plan and runner settings of a spec: the one way from a
// ScenarioSpec to ReplicaRunner.
[[nodiscard]] ReplicaPlan replica_plan_from(const ScenarioSpec& spec);
[[nodiscard]] ReplicaRunner::Config runner_config_from(const ScenarioSpec& spec);

}  // namespace bb::scenarios

#endif  // BB_SCENARIOS_REPLICA_RUNNER_H

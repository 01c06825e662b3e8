// Multi-replica measurement with confidence intervals: the quickstart
// scenario, N times in parallel.
//
//   $ ./examples/replica_ci
//
// A single 5-minute run gives one point estimate; the paper (§5.2, §8)
// stresses that the *variance* of the estimators is the interesting part.
// ReplicaRunner runs independent replicas of the same experiment — each
// with its own RNG stream derived positionally from a master seed — across
// all CPU cores, and reports mean, stddev and a 95% percentile-bootstrap
// confidence interval.  Aggregates are bit-identical for any thread count.
#include <cstdio>

#include "scenarios/replica_runner.h"

int main() {
    using namespace bb;

    // The quickstart path: 30 Mb/s drop-tail dumbbell, CBR cross traffic
    // with engineered 68 ms loss episodes, BADABING at p = 0.3.
    scenarios::ReplicaPlan plan;
    plan.spec.testbed.bottleneck_rate_bps = 30'000'000;
    plan.spec.workload.kind = scenarios::TrafficKind::cbr_uniform;
    plan.spec.workload.duration = seconds_i(300);
    plan.spec.workload.episode_duration = milliseconds(68);
    plan.spec.workload.mean_episode_gap = seconds_i(10);
    plan.spec.badabing.p = 0.3;
    plan.spec.badabing.total_slots = 0;  // sized to the workload automatically

    scenarios::ReplicaRunner::Config cfg;
    cfg.replicas = 8;
    cfg.threads = 0;  // all hardware threads
    cfg.master_seed = 42;

    const scenarios::ReplicaRunner runner{cfg};
    std::printf("running %zu replicas of a 300 s CBR scenario (p = %.1f)...\n\n",
                cfg.replicas, plan.spec.badabing.p);
    const auto results = runner.run(plan);
    const auto agg = runner.aggregate(plan, results);

    std::printf("%-8s | %-10s | %-10s | %-10s\n", "replica", "true freq", "est freq",
                "est dur(s)");
    for (const auto& r : results) {
        std::printf("%-8zu | %-10.4f | %-10.4f | %-10.3f\n", r.index, r.truth.frequency,
                    r.est_frequency(), r.est_duration_s(plan.spec.badabing.slot_width));
    }

    std::printf("\naggregate over %zu replicas (mean +/- 95%% bootstrap CI):\n",
                results.size());
    std::printf("  true frequency : %.4f (sd %.4f)\n", agg.true_frequency.mean,
                agg.true_frequency.stddev);
    std::printf("  est  frequency : %.4f [%.4f, %.4f]\n", agg.est_frequency.mean,
                agg.est_frequency.ci.lo, agg.est_frequency.ci.hi);
    std::printf("  true duration  : %.3f s (sd %.3f)\n", agg.true_duration_s.mean,
                agg.true_duration_s.stddev);
    std::printf("  est  duration  : %.3f s [%.3f, %.3f]\n", agg.est_duration_s.mean,
                agg.est_duration_s.ci.lo, agg.est_duration_s.ci.hi);

    std::printf("\nReading the result: the CI tells you how much of the gap between the\n"
                "estimate and the truth is estimator bias (persists across replicas)\n"
                "versus sampling noise (averages out).  Single-run comparisons cannot\n"
                "separate the two.\n");
    return 0;
}

// End-to-end determinism of the run-state hash chain (DESIGN.md §14): the
// merged digest of a replica run must be a pure function of the plan —
// identical across worker-thread counts and with obs instrumentation on or
// off — for the paper's scenario families (Table 4 CBR, Table 5 TCP,
// Table 6 web-like, and the fig9 sensitivity base).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/control.h"
#include "scenarios/replica_runner.h"
#include "scenarios/spec.h"
#include "scenarios/sweep.h"

namespace bb::scenarios {
namespace {

ReplicaRunner::Config runner_config(std::size_t threads) {
    ReplicaRunner::Config cfg;
    cfg.replicas = 3;
    cfg.threads = threads;
    cfg.master_seed = 7;
    return cfg;
}

std::uint64_t digest_of(const ReplicaPlan& base, std::size_t threads) {
    ReplicaPlan plan = base;
    plan.hashing = true;
    const ReplicaRunner runner{runner_config(threads)};
    const auto results = runner.run(plan);
    for (const auto& r : results) EXPECT_GT(r.hash_records, 0u);
    return ReplicaRunner::merged_state_hash(results);
}

// Forces obs on for one test and restores the previous kill-switch state.
class ObsOn {
public:
    ObsOn() : was_enabled_{obs::enabled()} { obs::set_enabled(true); }
    ~ObsOn() { obs::set_enabled(was_enabled_); }

private:
    bool was_enabled_;
};

// Digests across threads {1, 4, 8}, obs on and off, must all agree.
void expect_thread_and_obs_invariant(const ReplicaPlan& plan) {
    const std::uint64_t reference = digest_of(plan, 1);
    for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
        EXPECT_EQ(digest_of(plan, threads), reference) << "threads " << threads;
    }
    obs::set_enabled(false);
    const std::uint64_t without_obs = digest_of(plan, 4);
    obs::set_enabled(true);
    const std::uint64_t with_obs = digest_of(plan, 4);
    EXPECT_EQ(without_obs, reference);
    EXPECT_EQ(with_obs, reference);
}

// Load a sweep example, expand it, and return cell 0's plan shortened to
// `duration_s` simulated seconds so the matrix stays fast.
ReplicaPlan plan_from_example(const std::string& file, int duration_s) {
    const auto sr = load_sweep_spec_file(std::string{BB_EXAMPLES_DIR} + "/" + file);
    EXPECT_TRUE(sr.ok) << sr.error;
    const auto ex = expand_sweep(sr.sweep, file);
    EXPECT_TRUE(ex.ok) << ex.error;
    ReplicaPlan plan = replica_plan_from(ex.cells.at(0).spec);
    plan.spec.workload.duration = seconds_i(duration_s);
    return plan;
}

TEST(DeterminismHash, Table4CbrScenarioFromExample) {
    expect_thread_and_obs_invariant(plan_from_example("table4.json", 6));
}

TEST(DeterminismHash, Fig9SensitivityBaseFromExample) {
    expect_thread_and_obs_invariant(plan_from_example("fig9.json", 6));
}

// Table 5's workload family: infinite TCP through the bottleneck.  No example
// spec file ships for it, so the plan is built in code.
TEST(DeterminismHash, Table5TcpScenario) {
    ReplicaPlan plan;
    plan.spec.workload.kind = TrafficKind::infinite_tcp;
    plan.spec.workload.duration = seconds_i(6);
    plan.spec.badabing.p = 0.3;
    plan.spec.badabing.total_slots = 0;
    expect_thread_and_obs_invariant(plan);
}

// Table 6's workload family: self-congesting web-like traffic (delay-based
// truth), also built in code.
TEST(DeterminismHash, Table6WebScenario) {
    ReplicaPlan plan;
    plan.spec.workload.kind = TrafficKind::web;
    plan.spec.workload.duration = seconds_i(6);
    plan.spec.truth.delay_based = true;
    plan.spec.badabing.p = 0.3;
    plan.spec.badabing.total_slots = 0;
    expect_thread_and_obs_invariant(plan);
}

// Recorder sampling rides the simulation scheduler, so recording is part of
// the *plan* — and therefore part of the digest: its sampling dispatches are
// folded like any other event.  A recording plan must hash deterministically
// (thread-count invariant), and differently from the non-recording plan.
// What recording must NOT change is the estimates, pinned by
// ExperimentRecorder.RecordingDoesNotChangeEstimates.
TEST(DeterminismHash, RecordingIsPartOfThePlanDigest) {
    // The recorder is inert with the kill switch off (BB_OBS=off), so the
    // recording plan needs obs on to differ from the plain one.
    const ObsOn guard;
    ReplicaPlan plan;
    plan.spec.workload.kind = TrafficKind::cbr_uniform;
    plan.spec.workload.duration = seconds_i(6);
    plan.spec.badabing.p = 0.3;
    plan.spec.badabing.total_slots = 0;
    const std::uint64_t plain = digest_of(plan, 2);
    plan.recording.enabled = true;
    plan.recording.interval = milliseconds(50);
    const std::uint64_t recording = digest_of(plan, 1);
    EXPECT_EQ(digest_of(plan, 4), recording);
    EXPECT_NE(recording, plain);  // the sampling dispatches are folded
}

// Hashing must not perturb the estimates themselves: the same plan with and
// without the chain yields bit-identical results.
TEST(DeterminismHash, HashingDoesNotChangeResults) {
    ReplicaPlan plan;
    plan.spec.workload.kind = TrafficKind::cbr_uniform;
    plan.spec.workload.duration = seconds_i(6);
    plan.spec.badabing.p = 0.3;
    plan.spec.badabing.total_slots = 0;

    ReplicaPlan hashed = plan;
    hashed.hashing = true;
    const ReplicaRunner runner{runner_config(2)};
    const auto plain = runner.run(plan);
    const auto with_hash = runner.run(hashed);
    ASSERT_EQ(plain.size(), with_hash.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].result.frequency.value, with_hash[i].result.frequency.value);
        EXPECT_EQ(plain[i].result.probes_sent, with_hash[i].result.probes_sent);
        EXPECT_EQ(plain[i].truth.frequency, with_hash[i].truth.frequency);
        EXPECT_EQ(plain[i].queue_drops, with_hash[i].queue_drops);
        EXPECT_EQ(plain[i].state_hash, 0u);  // hashing off: no digest
        EXPECT_NE(with_hash[i].state_hash, 0u);
    }
}

}  // namespace
}  // namespace bb::scenarios

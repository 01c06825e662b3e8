// Shared front end of the command-line tools.
//
// The simulated-run tools (badabing_sim, zing_sim) configure every run
// through one ScenarioSpec: they start from the --spec file, or from the DSL
// defaults without one, and each flag set explicitly on the command line
// edits that spec.  SimRunFlags registers and applies the flags the two tools
// share; the exit plumbing below (obs export files, the state-hash line) is
// printed the same way by every tool.
#ifndef BB_TOOLS_TOOL_COMMON_H
#define BB_TOOLS_TOOL_COMMON_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/run_hasher.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"
#include "util/flags.h"

namespace bb::tools {

struct SimRunFlags {
    explicit SimRunFlags(FlagSet& flags);

    // The run's spec: --spec (or the DSL defaults) edited by every explicitly
    // set shared flag.  Without --spec the defaults are the paper's cbr run
    // (p 0.3, 900 s, 30 Mb/s, seed 7) and --scenario=web implies delay-based
    // truth.  Prints a one-line diagnostic and returns nullopt on error,
    // including a spec whose topology cannot host a single run.
    [[nodiscard]] std::optional<scenarios::ScenarioSpec> spec() const;

    // start_obs() / finish_obs() over this tool's export flags.
    void start_obs() const;
    [[nodiscard]] int finish_obs() const;

    // Run the experiment, sampling its sim-time series when --series-out is
    // set (the returned recorder is then finished, else nullptr).
    [[nodiscard]] std::unique_ptr<scenarios::ExperimentRecorder> run(
        scenarios::Experiment& exp) const;
    // Write --series-out from run()'s recorder; 1 if the write failed.
    [[nodiscard]] int write_series(scenarios::ExperimentRecorder* recording) const;

    const FlagSet* flags;
    const std::string* spec_path;
    const std::string* scenario;
    const std::int64_t* duration_s;
    const std::int64_t* rate_mbps;
    const std::int64_t* seed;
    const std::string* metrics_json;
    const std::string* trace_out;
    const std::string* series_out;
    const std::int64_t* series_interval_ms;
    const bool* state_hash;
    const std::string* hash_trace_out;
    const std::int64_t* hash_trace_capacity;
};

// The run-state hash chain of one single-threaded run: a core::RunHasher
// scoped to this thread for the object's lifetime when --state-hash or
// --hash-trace-out asks for it.  Declare it before building the world so
// construction is folded.
class RunHash {
public:
    explicit RunHash(const SimRunFlags& cli);
    RunHash(const RunHash&) = delete;
    RunHash& operator=(const RunHash&) = delete;

    // Print the "state-hash" line and write --hash-trace-out; returns 1 if
    // the trace could not be written.  No-op when hashing is off.
    [[nodiscard]] int report() const;

private:
    std::string trace_path_;
    std::optional<core::RunHasher> hasher_;
    std::optional<core::HashScope> scope_;
};

// Explicit export flags beat the ambient BB_OBS kill switch: `exporting`
// turns obs on, and a non-empty `trace_path` starts span collection.
void start_obs(bool exporting, const std::string& trace_path);

// Flush the obs export files at tool exit and print the process line.
// Either file failing to write is a tool failure (returns 1).
[[nodiscard]] int finish_obs(const std::string& metrics_path, const std::string& trace_path);

}  // namespace bb::tools

#endif  // BB_TOOLS_TOOL_COMMON_H

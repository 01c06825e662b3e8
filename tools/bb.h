// The `bb` command-line program: one executable, one subcommand per job.
//
// A simulated run is declared only by its spec file; the flags of every
// subcommand name outputs (export files, hash traces, series) or, for
// `estimate`, how a recorded trace is analysed.  The export flags below are
// registered and printed the same way by every subcommand that has them.
#ifndef BB_TOOLS_BB_H
#define BB_TOOLS_BB_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "scenarios/sim_record.h"
#include "util/flags.h"

namespace bb::tools {

// Subcommand entry points; argv[0] is the subcommand name.
int run_main(int argc, char** argv);
int estimate_main(int argc, char** argv);
int diverge_main(int argc, char** argv);

// --metrics-json / --trace-out: the obs metrics snapshot and the Chrome
// trace, written when the subcommand exits.
struct ObsFlags {
    explicit ObsFlags(FlagSet& flags);

    // Explicit export flags beat the ambient BB_OBS kill switch: any export
    // (or `recording`, a series capture) turns obs on, and --trace-out
    // starts span collection.
    void start(bool recording) const;
    // Write the export files and print the process line; 1 if a file could
    // not be written.
    [[nodiscard]] int finish() const;

    const std::string* metrics_json;
    const std::string* trace_out;
};

// --series-out / --series-interval-ms: the sim-time series capture.
struct SeriesFlags {
    SeriesFlags(FlagSet& flags, const char* out_help);

    [[nodiscard]] bool on() const { return !out->empty(); }
    [[nodiscard]] scenarios::SimRecordingConfig config() const;

    const std::string* out;
    const std::int64_t* interval_ms;
};

// --state-hash / --hash-trace-out / --hash-trace-capacity: the run-state
// hash chain (DESIGN.md §14).
struct HashFlags {
    HashFlags(FlagSet& flags, const char* state_hash_help, const char* trace_help);

    [[nodiscard]] bool on() const { return *state_hash || !trace_out->empty(); }
    // Trace-ring size: 0 when no trace is written.
    [[nodiscard]] std::size_t ring() const;

    const bool* state_hash;
    const std::string* trace_out;
    const std::int64_t* capacity;
};

}  // namespace bb::tools

#endif  // BB_TOOLS_BB_H

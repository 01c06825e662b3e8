// The `bb` command-line program: one executable, one subcommand per job.
//
// A simulated run is declared only by its spec file; the flags of every
// subcommand name outputs (export files, hash traces, series) or, for
// `estimate`, how a recorded trace is analysed.  The obs export flags below
// are registered and printed the same way by every subcommand that has them.
#ifndef BB_TOOLS_BB_H
#define BB_TOOLS_BB_H

#include <string>

#include "util/flags.h"

namespace bb::tools {

// Subcommand entry points; argv[0] is the subcommand name.
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

}  // namespace bb::tools

#endif  // BB_TOOLS_BB_H

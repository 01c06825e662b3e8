// Probe-trace serialization: the receiver side of a real deployment writes
// per-probe records to disk; analysis (marking, estimation, bootstrap) runs
// offline on the files.  The format is a small, versioned CSV so traces are
// greppable and loadable from any toolchain:
//
//   # badabing-trace v1
//   slot,send_time_ns,packets_sent,packets_lost,max_owd_ns,any_received
//   120,600000000,3,0,50230000,1
//   ...
//
// The experiment design is serialized alongside (one experiment per line)
// so a trace is self-contained:
//
//   # badabing-design v1
//   start_slot,kind            # kind: 0 = basic, 1 = extended
#ifndef BB_CORE_TRACE_IO_H
#define BB_CORE_TRACE_IO_H

#include <iosfwd>
#include <string>
#include <vector>

#include "core/probe_process.h"
#include "core/types.h"

namespace bb::core {

// --- probe outcomes ---------------------------------------------------------
void write_trace(std::ostream& out, const std::vector<ProbeOutcome>& probes);
[[nodiscard]] std::vector<ProbeOutcome> read_trace(std::istream& in);  // throws on bad input

void write_trace_file(const std::string& path, const std::vector<ProbeOutcome>& probes);
[[nodiscard]] std::vector<ProbeOutcome> read_trace_file(const std::string& path);

// --- experiment designs -----------------------------------------------------
void write_design(std::ostream& out, const std::vector<Experiment>& experiments);
[[nodiscard]] std::vector<Experiment> read_design(std::istream& in);  // throws on bad input

void write_design_file(const std::string& path, const std::vector<Experiment>& experiments);
[[nodiscard]] std::vector<Experiment> read_design_file(const std::string& path);

}  // namespace bb::core

#endif  // BB_CORE_TRACE_IO_H

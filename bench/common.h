// Shared harness for the table/figure reproduction benches.
#ifndef BB_BENCH_COMMON_H
#define BB_BENCH_COMMON_H

#include <cstdint>
#include <string>

#include "scenarios/experiment.h"

namespace bb::bench {

// Paper runs are 15 minutes.  BB_BENCH_DURATION_S overrides for quick looks.
[[nodiscard]] TimeNs bench_duration();
[[nodiscard]] std::uint64_t bench_seed();

// The testbed scaled from the paper's OC3: defaults to 30 Mb/s with the same
// 50 ms one-way delay and 100 ms buffer.  BB_BENCH_RATE_MBPS overrides.
[[nodiscard]] scenarios::TestbedConfig bench_testbed();

// Scenario presets matching the paper's experiments (tcp_flows is scaled to
// keep the per-flow share of the bottleneck comparable to 40 flows on OC3).
[[nodiscard]] scenarios::WorkloadConfig infinite_tcp_workload();
[[nodiscard]] scenarios::WorkloadConfig cbr_uniform_workload();
[[nodiscard]] scenarios::WorkloadConfig web_workload();

[[nodiscard]] scenarios::TruthConfig truth_for(const scenarios::WorkloadConfig& wl);

void print_header(const std::string& title, const std::string& paper_ref);

}  // namespace bb::bench

#endif  // BB_BENCH_COMMON_H

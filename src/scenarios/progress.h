// Sweep/replica progress reporting: cells done/total, cache hits, per-cell
// wall time and a simple ETA.
//
// The tracker itself never reads a clock and never prints — the caller
// measures each cell's wall time and decides where the report goes (bb sweep
// prints progress_line() to stderr and/or writes progress_json() to a file).
// That keeps this layer clean of direct I/O (project lint no-direct-io) and
// makes the ETA math unit-testable with injected times.
#ifndef BB_SCENARIOS_PROGRESS_H
#define BB_SCENARIOS_PROGRESS_H

#include <cstddef>
#include <string>

namespace bb::scenarios {

// Snapshot after one finished cell.
struct SweepProgress {
    std::size_t done{0};
    std::size_t total{0};
    std::size_t computed{0};
    std::size_t cached{0};
    std::string config_hash;  // the cell that just finished
    bool cell_cached{false};
    double cell_seconds{0.0};
    double elapsed_seconds{0.0};
    // Remaining cells at the mean wall time of the cells computed so far
    // (cache hits are treated as free); 0 until something finishes.
    double eta_seconds{0.0};
};

class ProgressTracker {
public:
    explicit ProgressTracker(std::size_t total) : total_{total} {}

    // Fold in one finished cell and return the updated snapshot.
    SweepProgress on_cell(const std::string& config_hash, bool cached,
                          double cell_seconds);

    [[nodiscard]] std::size_t done() const noexcept { return done_; }
    [[nodiscard]] std::size_t total() const noexcept { return total_; }

private:
    std::size_t total_;
    std::size_t done_{0};
    std::size_t computed_{0};
    std::size_t cached_{0};
    double elapsed_{0.0};
    double computed_seconds_{0.0};
};

// One-line JSON snapshot (compact house style), newline-terminated.
[[nodiscard]] std::string progress_json(const SweepProgress& p);

// Human-readable one-liner for a tool's stderr:
//   "cell 3/16 a1b2c3 computed 1.24s | elapsed 4.1s eta 16.2s | 1 cached".
[[nodiscard]] std::string progress_line(const SweepProgress& p);

}  // namespace bb::scenarios

#endif  // BB_SCENARIOS_PROGRESS_H

// Public face of the determinism hash chain (DESIGN.md §14).
//
// A RunHasher owns one det::Chain — one replica's digest — and knows how to
// (a) merge per-replica digests, in replica-index order, into the run digest
// printed by --state-hash, and (b) serialise its bounded trace ring as a
// bb.hashtrace.v1 JSON document for --hash-trace-out / `bb diverge`.
//
// HashScope installs the hasher on the *current thread*: every det::fold()
// site (scheduler dispatch, Rng draws, queue verdicts, report emissions)
// reaches the installed chain and nothing else.  Replica workers scope their
// own hasher around the whole replica build+run+analyze, so the merged digest
// is a pure function of the plan — thread count and obs instrumentation
// cannot leak in.
#ifndef BB_CORE_RUN_HASHER_H
#define BB_CORE_RUN_HASHER_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/det.h"

namespace bb::core {

class RunHasher {
public:
    // `trace_capacity` > 0 keeps the most recent N records for trace_json().
    explicit RunHasher(std::size_t trace_capacity = 0) : chain_{trace_capacity} {}

    [[nodiscard]] det::Chain& chain() noexcept { return chain_; }
    [[nodiscard]] std::uint64_t digest() const noexcept { return chain_.digest(); }
    [[nodiscard]] std::uint64_t records() const noexcept { return chain_.records(); }

    // Fold per-replica digests (index order) into the run digest.  An empty
    // list yields the FNV offset basis — the digest of "no replicas".
    [[nodiscard]] static std::uint64_t merge(const std::vector<std::uint64_t>& digests) noexcept;

    // 16 lowercase hex digits, the format --state-hash prints.
    [[nodiscard]] static std::string hex(std::uint64_t digest);

    // bb.hashtrace.v1 document for this hasher's ring.
    [[nodiscard]] std::string trace_json() const;
    // Same, from parts (used when the trace ring outlives the hasher).
    [[nodiscard]] static std::string trace_json(std::uint64_t final_digest,
                                               std::uint64_t records_total,
                                               std::size_t ring_capacity,
                                               const std::vector<det::TraceRecord>& records);

private:
    det::Chain chain_;
};

// RAII: route this thread's det::fold() calls into `h` until destruction.
class HashScope {
public:
    explicit HashScope(RunHasher& h) noexcept : scope_{h.chain()} {}

private:
    det::ScopedChain scope_;
};

}  // namespace bb::core

#endif  // BB_CORE_RUN_HASHER_H

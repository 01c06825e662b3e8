// Run-state hash chain primitive (DESIGN.md §14).
//
// A det::Chain is an FNV-1a 64-bit digest folded, in dispatch order, over the
// result-affecting actions of one replica: scheduler event dispatch, raw Rng
// draws, queue verdicts, and report emissions.  Two runs of the same plan are
// bit-identical iff their chains are — and because each record's digest
// depends on every record before it, the *first* divergent record localises
// the first divergent action (`bb diverge` bisects on exactly this).
//
// Layering: this header is the lowest rung (util) so that the header-only
// Rng can fold draws without depending on core.  The public orchestration
// API — core::RunHasher / core::HashScope and the bb.hashtrace.v1 JSON
// emission — lives in src/core/run_hasher.h.
//
// Cost model: hashing is off unless a Chain is installed on the current
// thread; every fold site pays one thread-local pointer load plus a branch,
// the same disabled-cost pattern as obs::enabled() (src/obs/control.h).
#ifndef BB_UTIL_DET_H
#define BB_UTIL_DET_H

#include <cstdint>
#include <cstdlib>
#include <vector>

namespace bb::det {

// What kind of action a record hashes.  Values are part of the digest (and
// of the bb.hashtrace.v1 format): renumbering changes every digest.
enum class Site : std::uint8_t {
    event = 1,    // scheduler dispatch: (time, insertion seq)
    rng = 2,      // one raw engine draw: (value)
    verdict = 3,  // queue decision: (time, accept/drop/mark, packet id)
    report = 4,   // streaming report emission: (kind, code)
};

[[nodiscard]] constexpr const char* site_name(Site s) noexcept {
    switch (s) {
        case Site::event: return "event";
        case Site::rng: return "rng";
        case Site::verdict: return "verdict";
        case Site::report: return "report";
    }
    return "?";
}

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x0000'0100'0000'01b3ULL;

// Fold one u64 into the digest, FNV-1a style but at word stride: one xor and
// one multiply per word instead of eight.  For a fixed h, v -> (h ^ v) * p
// with odd p is a bijection, so any single-word difference always changes
// the digest — equality detection (all this chain is for) loses nothing,
// while the fold stays cheap enough for the <= 5% enabled-overhead budget
// on the per-event/per-draw hot paths (bench/micro_sim's hashed gate).
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) noexcept {
    return (h ^ v) * kFnvPrime;
}

// One entry of the bounded trace ring: the digest *after* folding record
// `seq` (0-based), plus enough context to print where it happened.
struct TraceRecord {
    std::uint64_t seq{0};
    std::int64_t t_ns{0};  // sim time of the action; 0 for rng/report sites
    Site site{Site::event};
    std::uint64_t digest{0};
};

class Chain {
public:
    // `trace_capacity` > 0 keeps the most recent N records for --hash-trace-out.
    explicit Chain(std::size_t trace_capacity = 0) {
        if (trace_capacity > 0) ring_.reserve(trace_capacity);
        capacity_ = trace_capacity;
        // Test-only divergence injection: BB_HASH_PERTURB=N XORs one bit into
        // the digest at record N.  Results are untouched; the chain diverges
        // at exactly record N, which gives bb diverge's integration test an
        // exact expected answer.
        if (const char* p = std::getenv("BB_HASH_PERTURB")) {
            perturb_at_ = std::strtoull(p, nullptr, 10);
        }
    }

    // Fold one record.  The short form is the Rng hot path (site + value);
    // the long form carries sim time and two payload words.
    void fold(Site site, std::uint64_t a) noexcept {
        std::uint64_t h = fnv1a_u64(digest_, static_cast<std::uint64_t>(site));
        commit(site, 0, fnv1a_u64(h, a));
    }
    void fold(Site site, std::int64_t t_ns, std::uint64_t a, std::uint64_t b) noexcept {
        std::uint64_t h = fnv1a_u64(digest_, static_cast<std::uint64_t>(site));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(t_ns));
        h = fnv1a_u64(h, a);
        commit(site, t_ns, fnv1a_u64(h, b));
    }

    [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
    [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
    [[nodiscard]] std::size_t trace_capacity() const noexcept { return capacity_; }

    // Ring contents in record order (oldest first).
    [[nodiscard]] std::vector<TraceRecord> trace() const {
        std::vector<TraceRecord> out;
        out.reserve(ring_.size());
        if (ring_.size() < capacity_) {  // ring never wrapped
            out = ring_;
        } else {
            for (std::size_t i = 0; i < ring_.size(); ++i) {
                out.push_back(ring_[(head_ + i) % ring_.size()]);
            }
        }
        return out;
    }

private:
    void commit(Site site, std::int64_t t_ns, std::uint64_t h) noexcept {
        if (records_ == perturb_at_) h ^= 1U;
        digest_ = h;
        if (capacity_ > 0) {
            const TraceRecord rec{records_, t_ns, site, h};
            if (ring_.size() < capacity_) {
                ring_.push_back(rec);
            } else {
                ring_[head_] = rec;
                head_ = (head_ + 1) % capacity_;
            }
        }
        ++records_;
    }

    std::uint64_t digest_{kFnvOffset};
    std::uint64_t records_{0};
    std::uint64_t perturb_at_{~0ULL};  // BB_HASH_PERTURB; default: never
    std::size_t capacity_{0};
    std::size_t head_{0};  // index of the oldest record once the ring wraps
    std::vector<TraceRecord> ring_;
};

// The chain folds land in, per thread; null = hashing off on this thread.
// Replica workers install their replica's chain for the duration of the run
// (core::HashScope), so the main thread's bootstrap draws never mix in.
inline thread_local Chain* t_chain = nullptr;

[[nodiscard]] inline bool enabled() noexcept { return t_chain != nullptr; }

// RAII install/restore of the current thread's fold target.
class ScopedChain {
public:
    explicit ScopedChain(Chain& c) noexcept : prev_{t_chain} { t_chain = &c; }
    ~ScopedChain() { t_chain = prev_; }
    ScopedChain(const ScopedChain&) = delete;
    ScopedChain& operator=(const ScopedChain&) = delete;

private:
    Chain* prev_;
};

// Fold helpers used at the instrumentation sites; no-ops when disabled.
inline void fold(Site site, std::uint64_t a) noexcept {
    if (Chain* c = t_chain) c->fold(site, a);
}
inline void fold(Site site, std::int64_t t_ns, std::uint64_t a, std::uint64_t b = 0) noexcept {
    if (Chain* c = t_chain) c->fold(site, t_ns, a, b);
}

}  // namespace bb::det

#endif  // BB_UTIL_DET_H

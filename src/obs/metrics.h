// Process-lifetime metrics registry: counters, gauges, and log-linear
// histograms for the measurement machinery itself (events dispatched, queue
// drops, reports scored, task latencies).
//
// Hot-path design (DESIGN.md §10): each metric is striped over kShards
// cache-line-padded cells plus one shared overflow cell.  A live thread owns
// one cell exclusively — no other thread writes it while the owner lives —
// so an add is a relaxed load and store, with no locked instruction.  The
// cell index sits in a trivially initialised thread-local, so the fast path
// is one TLS load and a compare; the first add on a thread claims a free
// cell (or, with kShards threads already alive, the overflow cell, which
// takes a relaxed fetch_add), and thread exit releases it for the next
// thread, whose adds continue from the cell's value.  snapshot() merges the
// cells; every value is exact with respect to completed adds.  Every
// mutating call first branches on the cached obs::enabled() bool
// (BB_OBS=off), so a disabled build pays one predictable branch.
//
// Metrics live for the whole process: registration hands out references that
// never move or die, so call sites can cache them (typically in a
// function-local static) and skip the registry lock forever after.
#ifndef BB_OBS_METRICS_H
#define BB_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/control.h"

namespace bb::obs {

inline constexpr std::size_t kShards = 32;  // owned cells; at most 64

namespace detail {
// Cell index of a thread past its release at exit, or of any thread that
// found all kShards cells owned: the shared overflow cell.
inline constexpr std::uint32_t kOverflowCell = kShards;
inline constexpr std::uint32_t kUnclaimed = ~std::uint32_t{0};
// This thread's cell.  Constant-initialised, so reading it needs no guard.
inline thread_local std::uint32_t t_cell = kUnclaimed;
// This thread's cell, claimed on first use: a free owned cell, or
// kOverflowCell if none is free.  The claim is released at thread exit.
std::uint32_t claimed_cell() noexcept;

// Add `n` to an owned cell: it has one writer, so a plain load and store is
// exact.
inline void owned_add(std::atomic<std::uint64_t>& v, std::uint64_t n) noexcept {
    v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}
}  // namespace detail

// Monotonic counter.  value() is exact with respect to completed inc() calls.
class Counter {
public:
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    void inc(std::uint64_t n = 1) noexcept {
        if (!enabled()) return;
        if (const std::uint32_t c = detail::t_cell; c < kShards) [[likely]] {
            detail::owned_add(cells_[c].v, n);
        } else {
            inc_unowned(n);
        }
    }

    [[nodiscard]] std::uint64_t value() const noexcept {
        std::uint64_t sum = 0;
        for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
        return sum;
    }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    friend class Registry;
    explicit Counter(std::string name) : name_{std::move(name)} {}
    // Out of line: the first add on a thread, and adds on the overflow cell.
    void inc_unowned(std::uint64_t n) noexcept;

    struct alignas(64) Cell {
        std::atomic<std::uint64_t> v{0};
    };

    std::string name_;
    Cell cells_[kShards + 1];  // owned cells, then the overflow cell
};

// Last-write-wins double value (queue depth, live loss rate).
class Gauge {
public:
    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

    void set(double v) noexcept {
        if (!enabled()) return;
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof v);
        __builtin_memcpy(&bits, &v, sizeof bits);
        bits_.store(bits, std::memory_order_relaxed);
    }

    [[nodiscard]] double value() const noexcept {
        const std::uint64_t bits = bits_.load(std::memory_order_relaxed);
        double v;
        __builtin_memcpy(&v, &bits, sizeof v);
        return v;
    }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    friend class Registry;
    explicit Gauge(std::string name) : name_{std::move(name)} {}

    std::string name_;
    std::atomic<std::uint64_t> bits_{0};  // bit pattern of 0.0
};

// Log-linear histogram of non-negative integer samples (latencies in us,
// sizes in bytes): 2^kSubBits linear sub-buckets per power of two, so the
// relative bucket width is bounded by 1/2^kSubBits (25% here) at any
// magnitude while the whole uint64 range needs only kBuckets cells.
class Histogram {
public:
    static constexpr int kSubBits = 2;
    static constexpr std::size_t kSubCount = std::size_t{1} << kSubBits;  // 4
    // Buckets 0..kSubCount-1 are exact; each later group of kSubCount spans
    // one octave [2^m, 2^(m+1)) for m = kSubBits .. 63.
    static constexpr std::size_t kBuckets = kSubCount + (64 - kSubBits) * kSubCount;

    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void record(std::int64_t value) noexcept {
        if (!enabled()) return;
        const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
        if (const std::uint32_t c = detail::t_cell; c < kShards) [[likely]] {
            Shard& s = shards_[c];
            detail::owned_add(s.count, 1);
            detail::owned_add(s.sum, v);
            detail::owned_add(s.buckets[bucket_index(v)], 1);
        } else {
            record_unowned(v);
        }
    }

    [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept {
        if (v < kSubCount) return static_cast<std::size_t>(v);
        const int msb = 63 - __builtin_clzll(v);
        const std::size_t group = static_cast<std::size_t>(msb) - kSubBits + 1;
        const std::size_t sub = (v >> (msb - kSubBits)) & (kSubCount - 1);
        return group * kSubCount + sub;
    }

    // Smallest value mapping to `bucket` (inverse of bucket_index).
    [[nodiscard]] static std::uint64_t bucket_lower_bound(std::size_t bucket) noexcept {
        if (bucket < kSubCount) return bucket;
        const std::size_t group = bucket / kSubCount;
        const std::size_t sub = bucket % kSubCount;
        const int msb = static_cast<int>(group) + kSubBits - 1;
        return (std::uint64_t{1} << msb) + (std::uint64_t{sub} << (msb - kSubBits));
    }

    struct Snapshot {
        std::uint64_t count{0};
        std::uint64_t sum{0};
        // (bucket lower bound, count), non-empty buckets only, ascending.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

        [[nodiscard]] double mean() const noexcept {
            return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
        }
        // Lower bound of the bucket containing the q-quantile sample.
        [[nodiscard]] std::uint64_t quantile(double q) const noexcept;
        // The quantiles every report emits, named (metrics_json, series
        // summaries, bench tables).
        [[nodiscard]] std::uint64_t p50() const noexcept { return quantile(0.50); }
        [[nodiscard]] std::uint64_t p95() const noexcept { return quantile(0.95); }
        [[nodiscard]] std::uint64_t p99() const noexcept { return quantile(0.99); }
    };

    [[nodiscard]] Snapshot snapshot() const;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    friend class Registry;
    explicit Histogram(std::string name);
    // Out of line: the first record on a thread, and records on the overflow
    // cell.
    void record_unowned(std::uint64_t v) noexcept;

    struct alignas(64) Shard {
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    };

    std::string name_;
    Shard shards_[kShards + 1];  // owned cells, then the overflow cell
};

// Name -> metric, one per process.  Lookup takes a mutex; the returned
// references are stable for the process lifetime, so look up once and cache.
class Registry {
public:
    static Registry& instance();

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name);

    struct Snapshot {
        std::vector<std::pair<std::string, std::uint64_t>> counters;  // sorted by name
        std::vector<std::pair<std::string, double>> gauges;
        std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
    };

    // Consistent-enough view for reporting: each metric is read atomically,
    // concurrent writers may land in either side of the cut.
    [[nodiscard]] Snapshot snapshot() const;

private:
    Registry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Convenience create-or-get wrappers over Registry::instance().
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

// JSON document with the full registry snapshot plus process stats
// (counters/gauges/histograms keyed by name, deterministically ordered).
[[nodiscard]] std::string metrics_json();

// Write metrics_json() to `path`; false (with a warning log) on I/O failure.
[[nodiscard]] bool write_metrics_file(const std::string& path);

}  // namespace bb::obs

#endif  // BB_OBS_METRICS_H

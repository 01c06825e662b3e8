#include "obs/metrics.h"

#include <cstdio>

#include "obs/log.h"
#include "obs/process_stats.h"
#include "util/json.h"  // header-only writer; obs must not link bb_util

namespace bb::obs {

// --- cell ownership ----------------------------------------------------------

namespace detail {
namespace {
static_assert(kShards <= 64, "cell ownership is one 64-bit mask");

// Bit i set: owned cell i belongs to a live thread.
std::atomic<std::uint64_t> g_owned_cells{0};

// Thread-exit release of the cell claimed_cell() handed out.  The release
// store publishes the thread's last adds to the next owner's acquiring
// claim, so the new owner's load-and-store continues from the exact value.
struct CellRelease {
    CellRelease() = default;
    CellRelease(const CellRelease&) = delete;
    CellRelease& operator=(const CellRelease&) = delete;
    ~CellRelease() {
        if (t_cell < kShards) {
            g_owned_cells.fetch_and(~(std::uint64_t{1} << t_cell), std::memory_order_release);
        }
        // Adds from later thread-exit code land in the shared cell.
        t_cell = kOverflowCell;
    }
};

// Add `n` to cell `c` of any kind; the overflow cell is shared.
void cell_add(std::atomic<std::uint64_t>& v, std::uint32_t c, std::uint64_t n) noexcept {
    if (c < kShards) {
        owned_add(v, n);
    } else {
        v.fetch_add(n, std::memory_order_relaxed);
    }
}
}  // namespace

std::uint32_t claimed_cell() noexcept {
    if (t_cell != kUnclaimed) return t_cell;
    constexpr std::uint64_t kAll =
        kShards == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << kShards) - 1;
    std::uint64_t owned = g_owned_cells.load(std::memory_order_relaxed);
    std::uint32_t cell = kOverflowCell;
    while (owned != kAll) {
        const auto free = static_cast<std::uint32_t>(__builtin_ctzll(~owned & kAll));
        if (g_owned_cells.compare_exchange_weak(owned, owned | (std::uint64_t{1} << free),
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
            cell = free;
            break;
        }
    }
    t_cell = cell;
    // Constructed on this thread's first claim only; its destructor runs at
    // thread exit.
    thread_local const CellRelease release;
    return cell;
}
}  // namespace detail

// --- Counter -----------------------------------------------------------------

void Counter::inc_unowned(std::uint64_t n) noexcept {
    const std::uint32_t c = detail::claimed_cell();
    detail::cell_add(cells_[c].v, c, n);
}

// --- Histogram ---------------------------------------------------------------

void Histogram::record_unowned(std::uint64_t v) noexcept {
    const std::uint32_t c = detail::claimed_cell();
    Shard& s = shards_[c];
    detail::cell_add(s.count, c, 1);
    detail::cell_add(s.sum, c, v);
    detail::cell_add(s.buckets[bucket_index(v)], c, 1);
}

Histogram::Histogram(std::string name) : name_{std::move(name)} {
    for (Shard& s : shards_) {
        s.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(kBuckets);
        for (std::size_t b = 0; b < kBuckets; ++b) {
            s.buckets[b].store(0, std::memory_order_relaxed);
        }
    }
}

Histogram::Snapshot Histogram::snapshot() const {
    Snapshot snap;
    std::vector<std::uint64_t> merged(kBuckets, 0);
    for (const Shard& s : shards_) {
        snap.count += s.count.load(std::memory_order_relaxed);
        snap.sum += s.sum.load(std::memory_order_relaxed);
        for (std::size_t b = 0; b < kBuckets; ++b) {
            merged[b] += s.buckets[b].load(std::memory_order_relaxed);
        }
    }
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (merged[b] > 0) snap.buckets.emplace_back(bucket_lower_bound(b), merged[b]);
    }
    return snap;
}

std::uint64_t Histogram::Snapshot::quantile(double q) const noexcept {
    if (count == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank of the q-quantile sample (1-based, nearest-rank definition).
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
    std::uint64_t seen = 0;
    for (const auto& [lb, n] : buckets) {
        seen += n;
        if (seen >= rank) return lb;
    }
    return buckets.empty() ? 0 : buckets.back().first;
}

// --- Registry ----------------------------------------------------------------

Registry& Registry::instance() {
    // Leaky singleton: metrics are process-lifetime, and worker threads may
    // still increment during static destruction.
    static Registry* r = new Registry;
    return *r;
}

Counter& Registry::counter(std::string_view name) {
    const std::lock_guard<std::mutex> lock{mu_};
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string{name},
                               std::unique_ptr<Counter>{new Counter{std::string{name}}})
                 .first;
    }
    return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
    const std::lock_guard<std::mutex> lock{mu_};
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        it = gauges_.emplace(std::string{name},
                             std::unique_ptr<Gauge>{new Gauge{std::string{name}}})
                 .first;
    }
    return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
    const std::lock_guard<std::mutex> lock{mu_};
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(std::string{name},
                                 std::unique_ptr<Histogram>{new Histogram{std::string{name}}})
                 .first;
    }
    return *it->second;
}

Registry::Snapshot Registry::snapshot() const {
    Snapshot snap;
    const std::lock_guard<std::mutex> lock{mu_};
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) snap.histograms.emplace_back(name, h->snapshot());
    return snap;
}

Counter& counter(std::string_view name) { return Registry::instance().counter(name); }
Gauge& gauge(std::string_view name) { return Registry::instance().gauge(name); }
Histogram& histogram(std::string_view name) { return Registry::instance().histogram(name); }

// --- JSON export -------------------------------------------------------------

std::string metrics_json() {
    const Registry::Snapshot snap = Registry::instance().snapshot();
    JsonWriter w{JsonWriter::Options{.indent = 2, .space_after_colon = true}};
    w.begin_object();
    w.key("counters").begin_object();
    for (const auto& [name, value] : snap.counters) w.key(name).value_uint(value);
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [name, value] : snap.gauges) w.key(name).value_double(value, "%.9g");
    w.end_object();
    w.key("histograms").begin_object();
    for (const auto& [name, h] : snap.histograms) {
        w.key(name).begin_object_inline();
        w.key("count").value_uint(h.count);
        w.key("sum").value_uint(h.sum);
        w.key("mean").value_double(h.mean(), "%.6g");
        w.key("p50").value_uint(h.p50());
        w.key("p95").value_uint(h.p95());
        w.key("p99").value_uint(h.p99());
        w.key("buckets").begin_array_inline();
        for (const auto& [lower_bound, count] : h.buckets) {
            w.begin_array_inline().value_uint(lower_bound).value_uint(count).end_array();
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.key("process").value_raw(process_stats_json(process_stats()));
    w.end_object();
    return w.take() + "\n";
}

bool write_metrics_file(const std::string& path) {
    const std::string doc = metrics_json();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        logf(LogLevel::warn, "cannot write metrics file %s", path.c_str());
        return false;
    }
    const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    const bool closed_ok = std::fclose(f) == 0;
    if (written != doc.size() || !closed_ok) {
        logf(LogLevel::warn, "short write to metrics file %s", path.c_str());
        return false;
    }
    return true;
}

}  // namespace bb::obs

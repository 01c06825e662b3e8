// micro_sched: scheduler event throughput, cancellation churn, and per-event
// allocation counts — the perf-regression gate for the simulator hot path.
//
// Two implementations run the same deterministic workloads:
//   * the live sim::Scheduler (pooled events, 4-ary heap, generation-counter
//     cancellation), and
//   * a self-contained copy of the pre-overhaul implementation
//     (std::function entries, std::push_heap/pop_heap binary heap,
//     unordered_set lazy cancellation), kept here as the baseline reference.
//
// Workloads:
//   tick   — self-rescheduling events ([this]-sized captures), the shape of
//            every traffic source / prober / queue event in the simulator.
//   churn  — schedule a spread of future timers, cancel 80%, then drain;
//            the TCP RTO / delayed-ACK pattern.
//
// The global operator new/delete are overridden to count allocations, so the
// "zero heap allocations per small event" contract is asserted, not assumed.
//
//   BB_BENCH_SCHED_EVENTS  events per workload rep (default 1'000'000)
//   BB_BENCH_SCHED_REPS    timed reps, best-of (default 5)
//   BB_BENCH_SCHED_GATE    off = report only, no exit-code gate
//   BB_BENCH_JSON          directory for BENCH_micro_sched.json (default .)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/process_stats.h"
#include "sim/scheduler.h"
#include "util/json.h"
#include "util/json_io.h"
#include "util/time.h"

// --- allocation counting ----------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n)) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
    return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace bb;

// --- pre-overhaul scheduler (baseline reference) ----------------------------

class LegacyScheduler {
public:
    using EventId = std::uint64_t;

    [[nodiscard]] TimeNs now() const noexcept { return now_; }

    EventId schedule_at(TimeNs at, std::function<void()> fn) {
        const EventId id = next_id_++;
        heap_.push_back(Entry{at, id, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
        return id;
    }
    EventId schedule_after(TimeNs delay, std::function<void()> fn) {
        return schedule_at(now_ + delay, std::move(fn));
    }
    void cancel(EventId id) { cancelled_.insert(id); }

    void run() {
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            Entry entry = std::move(heap_.back());
            heap_.pop_back();
            if (auto it = cancelled_.find(entry.id); it != cancelled_.end()) {
                cancelled_.erase(it);
                continue;
            }
            now_ = entry.at;
            ++executed_;
            entry.fn();
        }
    }

    [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

private:
    struct Entry {
        TimeNs at;
        EventId id;
        std::function<void()> fn;
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            if (a.at != b.at) return a.at > b.at;
            return a.id > b.id;
        }
    };

    TimeNs now_{TimeNs::zero()};
    EventId next_id_{1};
    std::uint64_t executed_{0};
    std::vector<Entry> heap_;
    std::unordered_set<EventId> cancelled_;
};

// --- workloads --------------------------------------------------------------

std::int64_t env_int(const char* name, std::int64_t fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::atoll(v) : fallback;
}

double secs_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Self-rescheduling tick, the simulator's dominant event shape.  The same
// 24-byte capture is handed to both schedulers; the legacy one must wrap it
// in std::function (which heap-allocates — that was the old hot path).
template <typename Sched>
struct Tick {
    Sched* sched;
    std::int64_t* count;
    std::int64_t limit;
    void operator()() const {
        if (++*count < limit) sched->schedule_after(microseconds(1), Tick{*this});
    }
};

template <typename Sched>
double run_tick(Sched& sched, std::int64_t events) {
    std::int64_t count = 0;
    const auto t0 = std::chrono::steady_clock::now();
    sched.schedule_at(sched.now(), Tick<Sched>{&sched, &count, events});
    sched.run();
    const double dt = secs_since(t0);
    if (count != events) {
        std::fprintf(stderr, "micro_sched: tick ran %lld events, expected %lld\n",
                     static_cast<long long>(count), static_cast<long long>(events));
        std::exit(1);
    }
    return dt;
}

// Timer churn: schedule a deterministic spread of future timers, cancel 80%
// of them, then drain.  This is the TCP RTO / delayed-ACK pattern that the
// generation-counter design makes O(1) and hash-free.
template <typename Sched>
double run_churn(Sched& sched, std::int64_t timers, std::uint64_t* fired_out) {
    std::int64_t fired = 0;
    std::vector<std::uint64_t> ids;  // both schedulers' EventId is uint64
    ids.reserve(static_cast<std::size_t>(timers));
    const auto t0 = std::chrono::steady_clock::now();
    const TimeNs base = sched.now();
    for (std::int64_t i = 0; i < timers; ++i) {
        const auto spread = static_cast<std::int64_t>((i * 7919) % 100'000);
        ids.push_back(sched.schedule_at(base + microseconds(spread + 1),
                                        [&fired] { ++fired; }));
    }
    for (std::int64_t i = 0; i < timers; ++i) {
        if (i % 5 != 0) sched.cancel(ids[static_cast<std::size_t>(i)]);
    }
    sched.run();
    const double dt = secs_since(t0);
    *fired_out = static_cast<std::uint64_t>(fired);
    return dt;
}

struct WorkloadResult {
    double new_mev_s{0.0};
    double legacy_mev_s{0.0};
    double speedup{0.0};
};

std::string host_name() {
    char buf[256] = {0};
    if (gethostname(buf, sizeof(buf) - 1) != 0) std::strcpy(buf, "unknown");
    return buf;
}

}  // namespace

int main() {
    const std::int64_t events = env_int("BB_BENCH_SCHED_EVENTS", 1'000'000);
    const std::int64_t reps = std::max<std::int64_t>(1, env_int("BB_BENCH_SCHED_REPS", 5));
    const char* gate_env = std::getenv("BB_BENCH_SCHED_GATE");
    const bool gate = gate_env == nullptr || std::string{gate_env} != "off";

    std::printf("micro_sched: %lld events/workload, best of %lld reps\n",
                static_cast<long long>(events), static_cast<long long>(reps));

    // --- tick throughput ----------------------------------------------------
    WorkloadResult tick;
    {
        double best_new = 1e300;
        double best_legacy = 1e300;
        for (std::int64_t r = 0; r < reps; ++r) {
            sim::Scheduler fresh;
            fresh.reserve(64);
            best_new = std::min(best_new, run_tick(fresh, events));
            LegacyScheduler legacy;
            best_legacy = std::min(best_legacy, run_tick(legacy, events));
        }
        tick.new_mev_s = static_cast<double>(events) / best_new / 1e6;
        tick.legacy_mev_s = static_cast<double>(events) / best_legacy / 1e6;
        tick.speedup = best_legacy / best_new;
    }

    // --- cancellation churn -------------------------------------------------
    WorkloadResult churn;
    std::uint64_t fired_new = 0;
    std::uint64_t fired_legacy = 0;
    {
        double best_new = 1e300;
        double best_legacy = 1e300;
        for (std::int64_t r = 0; r < reps; ++r) {
            sim::Scheduler fresh;
            fresh.reserve(static_cast<std::size_t>(events));
            best_new = std::min(best_new, run_churn(fresh, events, &fired_new));
            LegacyScheduler legacy;
            best_legacy = std::min(best_legacy, run_churn(legacy, events, &fired_legacy));
        }
        churn.new_mev_s = static_cast<double>(events) / best_new / 1e6;
        churn.legacy_mev_s = static_cast<double>(events) / best_legacy / 1e6;
        churn.speedup = best_legacy / best_new;
    }
    if (fired_new != fired_legacy) {
        std::fprintf(stderr, "micro_sched: churn fired %llu (new) vs %llu (legacy)\n",
                     static_cast<unsigned long long>(fired_new),
                     static_cast<unsigned long long>(fired_legacy));
        return 1;
    }

    // --- allocation count: steady-state tick on a warmed scheduler ----------
    double allocs_per_event = 0.0;
    {
        sim::Scheduler sched;
        sched.reserve(64);
        (void)run_tick(sched, 1000);  // warm-up: size the arena, obs statics
        const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        (void)run_tick(sched, events);
        const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
        allocs_per_event = static_cast<double>(after - before) / static_cast<double>(events);
    }

    std::printf("%-6s | %-14s | %-14s | %s\n", "load", "new Mev/s", "legacy Mev/s",
                "speedup");
    std::printf("--------------------------------------------------\n");
    std::printf("%-6s | %-14.2f | %-14.2f | %.2fx\n", "tick", tick.new_mev_s,
                tick.legacy_mev_s, tick.speedup);
    std::printf("%-6s | %-14.2f | %-14.2f | %.2fx\n", "churn", churn.new_mev_s,
                churn.legacy_mev_s, churn.speedup);
    std::printf("allocations per small event (steady state): %.6f\n", allocs_per_event);

    const char* dir = std::getenv("BB_BENCH_JSON");
    std::string path{dir != nullptr ? dir : "."};
    if (path.empty() || path == "1") path = ".";
    path += "/BENCH_micro_sched.json";
    JsonWriter w{JsonWriter::Options{2, true}};
    w.begin_object();
    w.key("bench").value("micro_sched");
    w.key("host").value(host_name());
    w.key("events").value_int(static_cast<std::int64_t>(events));
    w.key("tick").begin_object_inline();
    w.key("new_mev_s").value_double(tick.new_mev_s, "%.3f");
    w.key("legacy_mev_s").value_double(tick.legacy_mev_s, "%.3f");
    w.key("speedup").value_double(tick.speedup, "%.3f");
    w.end_object();
    w.key("churn").begin_object_inline();
    w.key("new_mev_s").value_double(churn.new_mev_s, "%.3f");
    w.key("legacy_mev_s").value_double(churn.legacy_mev_s, "%.3f");
    w.key("speedup").value_double(churn.speedup, "%.3f");
    w.end_object();
    w.key("allocs_per_event_small").value_double(allocs_per_event, "%.6f");
    w.end_object();
    if (!write_text_file(path, w.str() + "\n")) {
        std::fprintf(stderr, "micro_sched: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("json: wrote %s\n", path.c_str());

    const obs::ProcessStats ps = obs::process_stats();
    std::printf("process: max RSS %lld KiB, cpu %.2fs user %.2fs sys\n",
                static_cast<long long>(ps.max_rss_kb), ps.user_cpu_s, ps.system_cpu_s);

    if (gate) {
        if (allocs_per_event != 0.0) {
            std::fprintf(stderr,
                         "micro_sched: FAIL — %.6f heap allocations per small event "
                         "(contract: 0)\n",
                         allocs_per_event);
            return 1;
        }
        if (tick.speedup < 1.5) {
            std::fprintf(stderr,
                         "micro_sched: FAIL — tick speedup %.2fx vs legacy (< 1.5x gate)\n",
                         tick.speedup);
            return 1;
        }
        std::printf("gate: ok (tick %.2fx >= 1.5x, 0 allocs/event)\n", tick.speedup);
    } else {
        std::printf("gate: off\n");
    }
    return 0;
}

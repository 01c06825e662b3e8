#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/control.h"
#include "obs/log.h"

namespace bb::obs {
namespace {

// Every test in this binary shares the process-wide kill switch; force it on
// for the duration of a test and restore afterwards.
class ObsOn {
public:
    ObsOn() { set_enabled(true); }
    ~ObsOn() { set_enabled(true); }
};

TEST(Counter, ConcurrentIncrementsSumExactly) {
    ObsOn guard;
    Counter& c = counter("test.counter.concurrent");
    const std::uint64_t before = c.value();

    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 50'000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
        });
    }
    for (auto& w : workers) w.join();

    // Sharded cells merge without losing a single increment.
    EXPECT_EQ(c.value() - before, kThreads * kPerThread);
}

TEST(Counter, RegistryReturnsSameInstanceForSameName) {
    ObsOn guard;
    Counter& a = counter("test.counter.identity");
    Counter& b = counter("test.counter.identity");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_GE(b.value(), 3u);
}

TEST(Counter, KillSwitchMakesIncANoOp) {
    ObsOn guard;
    Counter& c = counter("test.counter.killswitch");
    const std::uint64_t before = c.value();
    set_enabled(false);
    for (int i = 0; i < 1000; ++i) c.inc();
    EXPECT_EQ(c.value(), before);
    set_enabled(true);
    c.inc();
    EXPECT_EQ(c.value(), before + 1);
}

TEST(Gauge, StoresLastWrittenDouble) {
    ObsOn guard;
    Gauge& g = gauge("test.gauge.basic");
    g.set(0.25);
    EXPECT_EQ(g.value(), 0.25);
    g.set(-7.5);
    EXPECT_EQ(g.value(), -7.5);

    set_enabled(false);
    g.set(99.0);
    EXPECT_EQ(g.value(), -7.5);  // write suppressed
    set_enabled(true);
}

TEST(Histogram, BucketBoundariesRoundTrip) {
    // Exact buckets below kSubCount...
    for (std::uint64_t v = 0; v < Histogram::kSubCount; ++v) {
        EXPECT_EQ(Histogram::bucket_index(v), v);
        EXPECT_EQ(Histogram::bucket_lower_bound(v), v);
    }
    // ...then every bucket's lower bound maps back to that bucket, and the
    // value one below it maps to the previous bucket.
    for (std::size_t b = 1; b < Histogram::kBuckets; ++b) {
        const std::uint64_t lo = Histogram::bucket_lower_bound(b);
        EXPECT_EQ(Histogram::bucket_index(lo), b) << "lower bound of bucket " << b;
        EXPECT_EQ(Histogram::bucket_index(lo - 1), b - 1) << "below bucket " << b;
    }
    // Relative bucket width stays within 1/kSubCount at any magnitude.
    EXPECT_EQ(Histogram::bucket_index(1023), Histogram::bucket_index(1020));
    EXPECT_NE(Histogram::bucket_index(1024), Histogram::bucket_index(1023));
}

TEST(Histogram, CountSumAndQuantiles) {
    ObsOn guard;
    Histogram& h = histogram("test.histogram.quantiles");
    // 100 samples of 10 and 100 samples of 1000.
    for (int i = 0; i < 100; ++i) h.record(10);
    for (int i = 0; i < 100; ++i) h.record(1000);
    const Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 200u);
    EXPECT_EQ(snap.sum, 100u * 10 + 100u * 1000);
    EXPECT_EQ(snap.mean(), (100.0 * 10 + 100.0 * 1000) / 200.0);
    // Nearest-rank on bucket lower bounds: p25 lands in the 10-bucket, p95 in
    // the 1000-bucket.
    EXPECT_EQ(snap.quantile(0.25), Histogram::bucket_lower_bound(Histogram::bucket_index(10)));
    EXPECT_EQ(snap.quantile(0.95),
              Histogram::bucket_lower_bound(Histogram::bucket_index(1000)));
    EXPECT_EQ(h.snapshot().buckets.size(), 2u);

    set_enabled(false);
    h.record(5);
    EXPECT_EQ(h.snapshot().count, 200u);
    set_enabled(true);
}

TEST(Histogram, NamedQuantileAccessorsMatchQuantile) {
    ObsOn guard;
    Histogram& h = histogram("test.histogram.named_quantiles");
    // Skewed stream: the named accessors must agree with quantile() exactly
    // and be ordered p50 <= p95 <= p99.
    for (int i = 0; i < 900; ++i) h.record(8);
    for (int i = 0; i < 80; ++i) h.record(500);
    for (int i = 0; i < 20; ++i) h.record(40'000);
    const Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.p50(), snap.quantile(0.50));
    EXPECT_EQ(snap.p95(), snap.quantile(0.95));
    EXPECT_EQ(snap.p99(), snap.quantile(0.99));
    EXPECT_LE(snap.p50(), snap.p95());
    EXPECT_LE(snap.p95(), snap.p99());
    EXPECT_EQ(snap.p50(), Histogram::bucket_lower_bound(Histogram::bucket_index(8)));
    EXPECT_EQ(snap.p95(), Histogram::bucket_lower_bound(Histogram::bucket_index(500)));
    EXPECT_EQ(snap.p99(), Histogram::bucket_lower_bound(Histogram::bucket_index(40'000)));
}

TEST(Histogram, NegativeSamplesClampToZero) {
    ObsOn guard;
    Histogram& h = histogram("test.histogram.negative");
    h.record(-42);
    const auto snap = h.snapshot();
    ASSERT_EQ(snap.buckets.size(), 1u);
    EXPECT_EQ(snap.buckets[0].first, 0u);
    EXPECT_EQ(snap.sum, 0u);
}

TEST(Registry, SnapshotWhileWritingNeverTearsAndEndsExact) {
    ObsOn guard;
    Counter& c = counter("test.counter.snapshot_race");
    const std::uint64_t before = c.value();

    constexpr int kWriters = 4;
    constexpr std::uint64_t kPerThread = 20'000;
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
        });
    }
    std::thread reader{[&] {
        std::uint64_t last = 0;
        while (!done.load(std::memory_order_relaxed)) {
            const Registry::Snapshot snap = Registry::instance().snapshot();
            for (const auto& [name, value] : snap.counters) {
                if (name == "test.counter.snapshot_race") {
                    // Monotone: concurrent snapshots may miss in-flight adds
                    // but can never go backwards or overshoot the final sum.
                    EXPECT_GE(value, last);
                    EXPECT_LE(value, before + kWriters * kPerThread);
                    last = value;
                }
            }
        }
    }};
    for (auto& w : writers) w.join();
    done.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_EQ(c.value(), before + kWriters * kPerThread);
}

// Cell ownership under thread churn: a thread owns its cell until it exits,
// then the cell passes to a later thread, which continues from its value.
TEST(Counter, ChurnedThreadsReuseReleasedCellsAndSumExactly) {
    ObsOn guard;
    Counter& c = counter("test.counter.churn");
    Histogram& h = histogram("test.histogram.churn");
    const std::uint64_t before = c.value();
    const std::uint64_t h_before = h.snapshot().count;

    constexpr int kThreads = 3 * static_cast<int>(kShards);
    constexpr std::uint64_t kPerThread = 1'000;
    std::atomic<bool> stop{false};
    std::thread reader{[&] {
        std::uint64_t last = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t v = c.value();
            EXPECT_GE(v, last);
            last = v;
        }
    }};
    int on_overflow = 0;
    for (int t = 0; t < kThreads; ++t) {
        std::uint32_t cell = 0;
        std::thread w{[&] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                c.inc();
                h.record(static_cast<std::int64_t>(i));
            }
            cell = detail::t_cell;
        }};
        w.join();
        if (cell >= kShards) ++on_overflow;
    }
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_EQ(on_overflow, 0) << "an exited thread's cell was not released";
    EXPECT_EQ(c.value() - before, kThreads * kPerThread);
    EXPECT_EQ(h.snapshot().count - h_before, kThreads * kPerThread);
}

TEST(Counter, MoreLiveThreadsThanCellsShareTheOverflowCellExactly) {
    ObsOn guard;
    Counter& c = counter("test.counter.overflow");
    Histogram& h = histogram("test.histogram.overflow");
    const std::uint64_t before = c.value();
    const std::uint64_t h_before = h.snapshot().count;

    constexpr int kThreads = static_cast<int>(kShards) + 8;
    constexpr std::uint64_t kPerThread = 5'000;
    std::atomic<int> claimed{0};
    std::atomic<int> on_overflow{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            c.inc();  // claims this thread's cell
            h.record(1);
            if (detail::t_cell >= kShards) on_overflow.fetch_add(1);
            // Hold the cell until every worker has claimed one, so all are
            // alive at once.
            claimed.fetch_add(1);
            while (claimed.load() < kThreads) std::this_thread::yield();
            for (std::uint64_t i = 1; i < kPerThread; ++i) {
                c.inc();
                h.record(static_cast<std::int64_t>(i));
            }
        });
    }
    std::thread reader{[&] {
        std::uint64_t last = 0;
        while (!done.load(std::memory_order_relaxed)) {
            const Registry::Snapshot snap = Registry::instance().snapshot();
            for (const auto& [name, value] : snap.counters) {
                if (name == "test.counter.overflow") {
                    EXPECT_GE(value, last);
                    EXPECT_LE(value, before + kThreads * kPerThread);
                    last = value;
                }
            }
        }
    }};
    for (auto& w : workers) w.join();
    done.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_GE(on_overflow.load(), kThreads - static_cast<int>(kShards));
    EXPECT_EQ(c.value() - before, kThreads * kPerThread);
    EXPECT_EQ(h.snapshot().count - h_before, kThreads * kPerThread);
}

TEST(MetricsJson, ContainsRegisteredMetricsAndProcessStats) {
    ObsOn guard;
    counter("test.json.counter").inc(5);
    gauge("test.json.gauge").set(1.5);
    histogram("test.json.histogram").record(7);
    const std::string doc = metrics_json();
    EXPECT_NE(doc.find("\"test.json.counter\""), std::string::npos);
    EXPECT_NE(doc.find("\"test.json.gauge\""), std::string::npos);
    EXPECT_NE(doc.find("\"test.json.histogram\""), std::string::npos);
    EXPECT_NE(doc.find("\"process\""), std::string::npos);
    EXPECT_NE(doc.find("\"max_rss_kb\""), std::string::npos);
}

TEST(Log, LevelFilterGatesEmission) {
    const LogLevel prev = log_level();
    set_log_level(LogLevel::warn);
    EXPECT_FALSE(log_enabled(LogLevel::debug));
    EXPECT_FALSE(log_enabled(LogLevel::info));
    EXPECT_TRUE(log_enabled(LogLevel::warn));
    EXPECT_TRUE(log_enabled(LogLevel::error));
    set_log_level(LogLevel::off);
    EXPECT_FALSE(log_enabled(LogLevel::error));
    // Emitting below the threshold must be safe (and silent).
    log(LogLevel::error, "suppressed");
    logf(LogLevel::error, "suppressed %d", 42);
    set_log_level(prev);
}

}  // namespace
}  // namespace bb::obs

// Concurrency stress for the pooled-event scheduler and the move-only task
// queue (run under BB_SANITIZE=thread via `ctest -L tsan`).  The scheduler is
// deliberately single-threaded per instance — the replica engine gives each
// worker its own — so the property under test is that independent scheduler
// instances churning in parallel share no hidden mutable state (a regression
// guard for the event arena and packet pool, which must stay per-instance).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/thread_pool.h"

namespace bb {
namespace {

// One replica's worth of schedule/cancel/fire churn, fully deterministic.
std::uint64_t churn_one_scheduler(unsigned salt) {
    sim::Scheduler sched;
    std::uint64_t fired = 0;
    std::vector<sim::EventId> ids;
    ids.reserve(20'000);
    for (unsigned i = 0; i < 20'000; ++i) {
        const auto at = microseconds(1 + (i * 7919u + salt) % 50'000);
        ids.push_back(sched.schedule_after(at, [&fired] { ++fired; }));
    }
    for (unsigned i = 0; i < ids.size(); ++i) {
        if ((i + salt) % 3 != 0) sched.cancel(ids[i]);
    }
    // Packet deliveries interleaved with the timer churn.
    sim::CountingSink sink;
    sim::PacketLane lane{sched};
    for (unsigned i = 0; i < 1'000; ++i) {
        sim::Packet p;
        p.id = i;
        lane.deliver_after(microseconds(10 + i), p, sink);
    }
    sched.run();
    return fired + sink.packets();
}

TEST(SchedulerStress, IndependentSchedulersChurnInParallel) {
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> results(kThreads, 0);
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &results] { results[t] = churn_one_scheduler(t); });
    }
    for (auto& th : threads) th.join();
    for (unsigned t = 0; t < kThreads; ++t) {
        // Survivors: i where (i + t) % 3 == 0 → ceil distribution around 1/3.
        std::uint64_t expect = 0;
        for (unsigned i = 0; i < 20'000; ++i) {
            if ((i + t) % 3 == 0) ++expect;
        }
        EXPECT_EQ(results[t], expect + 1'000) << "thread " << t;
    }
}

TEST(SchedulerStress, SameResultSequentialAndParallel) {
    std::uint64_t sequential = churn_one_scheduler(5);
    std::uint64_t parallel = 0;
    std::thread worker{[&parallel] { parallel = churn_one_scheduler(5); }};
    std::thread noise{[] { (void)churn_one_scheduler(11); }};
    worker.join();
    noise.join();
    EXPECT_EQ(sequential, parallel);
}

TEST(SchedulerStress, ThreadPoolStormOfMoveOnlySchedulerTasks) {
    // The replica-engine shape: the pool fans schedulers out across workers,
    // each task owning its scheduler through a move-only capture.
    constexpr int kTasks = 64;
    ThreadPool pool{4};
    std::atomic<std::uint64_t> total{0};
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        auto sched = std::make_unique<sim::Scheduler>();
        futures.push_back(pool.submit([s = std::move(sched), i, &total] {
            std::uint64_t fired = 0;
            for (int k = 0; k < 500; ++k) {
                s->schedule_after(microseconds(1 + (k * 31 + i) % 977),
                                  [&fired] { ++fired; });
            }
            s->run();
            total.fetch_add(fired, std::memory_order_relaxed);
        }));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kTasks) * 500u);
}

}  // namespace
}  // namespace bb

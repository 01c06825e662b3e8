#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/det.h"
#include "util/rng.h"

namespace bb::sim {
namespace {

TEST(Scheduler, StartsAtZero) {
    Scheduler s;
    EXPECT_EQ(s.now(), TimeNs::zero());
    EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(milliseconds(30), [&] { order.push_back(3); });
    s.schedule_at(milliseconds(10), [&] { order.push_back(1); });
    s.schedule_at(milliseconds(20), [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(milliseconds(5), [&] { order.push_back(1); });
    s.schedule_at(milliseconds(5), [&] { order.push_back(2); });
    s.schedule_at(milliseconds(5), [&] { order.push_back(3); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, NowAdvancesToEventTime) {
    Scheduler s;
    TimeNs seen{TimeNs::zero()};
    s.schedule_at(milliseconds(7), [&] { seen = s.now(); });
    s.run();
    EXPECT_EQ(seen, milliseconds(7));
}

TEST(Scheduler, ScheduleAfterIsRelative) {
    Scheduler s;
    std::vector<double> times;
    s.schedule_at(milliseconds(10), [&] {
        s.schedule_after(milliseconds(5), [&] { times.push_back(s.now().to_millis()); });
    });
    s.run();
    ASSERT_EQ(times.size(), 1u);
    EXPECT_DOUBLE_EQ(times[0], 15.0);
}

TEST(Scheduler, PastSchedulingThrows) {
    Scheduler s;
    s.schedule_at(milliseconds(10), [] {});
    s.run();
    EXPECT_THROW(s.schedule_at(milliseconds(5), [] {}), std::invalid_argument);
}

TEST(Scheduler, RunUntilStopsAtHorizonInclusive) {
    Scheduler s;
    int fired = 0;
    s.schedule_at(milliseconds(10), [&] { ++fired; });
    s.schedule_at(milliseconds(20), [&] { ++fired; });
    s.schedule_at(milliseconds(30), [&] { ++fired; });
    s.run_until(milliseconds(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), milliseconds(20));
    s.run_until(milliseconds(40));
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(s.now(), milliseconds(40));
}

TEST(Scheduler, CancelPreventsExecution) {
    Scheduler s;
    int fired = 0;
    const EventId id = s.schedule_at(milliseconds(10), [&] { ++fired; });
    s.schedule_at(milliseconds(20), [&] { ++fired; });
    s.cancel(id);
    s.run();
    EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CancelUnknownIdIsNoOp) {
    Scheduler s;
    s.cancel(123456);
    int fired = 0;
    s.schedule_at(milliseconds(1), [&] { ++fired; });
    s.run();
    EXPECT_EQ(fired, 1);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
    Scheduler s;
    int count = 0;
    std::function<void()> tick = [&] {
        ++count;
        if (count < 100) s.schedule_after(milliseconds(1), tick);
    };
    s.schedule_at(TimeNs::zero(), tick);
    s.run();
    EXPECT_EQ(count, 100);
    EXPECT_EQ(s.now(), milliseconds(99));
    EXPECT_EQ(s.executed_events(), 100u);
}

TEST(Scheduler, RunUntilAdvancesClockEvenWithoutEvents) {
    Scheduler s;
    s.run_until(seconds_i(5));
    EXPECT_EQ(s.now(), seconds_i(5));
}

TEST(Scheduler, CancelAfterFireIsNoOp) {
    Scheduler s;
    int fired = 0;
    const EventId id = s.schedule_at(milliseconds(1), [&] { ++fired; });
    s.run();
    EXPECT_EQ(fired, 1);
    s.cancel(id);  // already fired: harmless
    // The arena slot was recycled; a stale cancel must not kill its new owner.
    s.schedule_at(milliseconds(2), [&] { ++fired; });
    s.cancel(id);
    s.run();
    EXPECT_EQ(fired, 2);
}

TEST(Scheduler, DoubleCancelCannotKillSlotReuser) {
    Scheduler s;
    int fired = 0;
    const EventId a = s.schedule_at(milliseconds(10), [&] { ++fired; });
    s.cancel(a);
    const EventId b = s.schedule_at(milliseconds(10), [&] { ++fired; });
    s.cancel(a);  // stale generation: must not touch b
    s.run();
    EXPECT_EQ(fired, 1);
    EXPECT_NE(a, b);
}

TEST(Scheduler, TiesWithCancellationsPreserveInsertionOrder) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(milliseconds(5), [&] { order.push_back(1); });
    const EventId skip = s.schedule_at(milliseconds(5), [&] { order.push_back(2); });
    s.schedule_at(milliseconds(5), [&] { order.push_back(3); });
    s.cancel(skip);
    s.schedule_at(milliseconds(5), [&] { order.push_back(4); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
}

TEST(Scheduler, PendingAndLiveEventAccounting) {
    Scheduler s;
    const EventId a = s.schedule_at(milliseconds(1), [] {});
    s.schedule_at(milliseconds(2), [] {});
    s.schedule_at(milliseconds(3), [] {});
    EXPECT_EQ(s.live_events(), 3u);
    EXPECT_GE(s.pending_events(), s.live_events());
    s.cancel(a);
    EXPECT_EQ(s.live_events(), 2u);
    EXPECT_EQ(s.cancelled_events(), 1u);
    s.run();
    EXPECT_EQ(s.live_events(), 0u);
    EXPECT_EQ(s.pending_events(), 0u);
    EXPECT_EQ(s.executed_events(), 2u);
}

TEST(Scheduler, CancelChurnKeepsMemoryBounded) {
    // The TCP RTO pattern at scale: schedule a far-future timer, cancel it,
    // repeat.  Lazy deletion with compaction must keep both the ready queue
    // and the arena bounded by a small constant, not the cycle count — the
    // old unordered_set bookkeeping grew when ids were cancelled faster than
    // pops drained them.
    Scheduler s;
    for (int i = 0; i < 100'000; ++i) {
        const EventId id = s.schedule_after(seconds_i(3600), [] {});
        s.cancel(id);
    }
    EXPECT_LE(s.pending_events(), 256u);
    EXPECT_LE(s.arena_slots(), 256u);
    EXPECT_EQ(s.live_events(), 0u);
    s.run_until(seconds_i(7200));
    EXPECT_EQ(s.executed_events(), 0u);
    EXPECT_EQ(s.cancelled_events(), 100'000u);
}

TEST(Scheduler, MixedChurnStillFiresSurvivors) {
    Scheduler s;
    int fired = 0;
    for (int i = 0; i < 10'000; ++i) {
        const EventId id = s.schedule_after(milliseconds(1 + i % 97), [&] { ++fired; });
        if (i % 4 != 0) s.cancel(id);
    }
    s.run();
    EXPECT_EQ(fired, 2500);
    EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, MoveOnlyEventCallables) {
    Scheduler s;
    auto payload = std::make_unique<int>(99);
    int seen = 0;
    s.schedule_at(milliseconds(1), [p = std::move(payload), &seen] { seen = *p; });
    s.run();
    EXPECT_EQ(seen, 99);
}

TEST(Scheduler, LargeCaptureEventsStillRun) {
    Scheduler s;
    struct Big {
        std::uint64_t words[16];
    };
    Big big{};
    big.words[15] = 7;
    std::uint64_t seen = 0;
    s.schedule_at(milliseconds(1), [big, &seen] { seen = big.words[15]; });
    s.run();
    EXPECT_EQ(seen, 7u);
}

TEST(Scheduler, CancelFromWithinEarlierEventAtSameTime) {
    Scheduler s;
    int fired = 0;
    EventId later{};
    s.schedule_at(milliseconds(5), [&] { s.cancel(later); });
    later = s.schedule_at(milliseconds(5), [&] { ++fired; });
    s.run();
    EXPECT_EQ(fired, 0);
}

TEST(Scheduler, DeliverAfterDeliversParkedPacket) {
    Scheduler s;
    PacketLane lane{s};
    CountingSink sink;
    Packet p;
    p.id = 77;
    p.size_bytes = 1500;
    p.sent_at = milliseconds(1);
    lane.deliver_after(milliseconds(3), p, sink);
    s.run();
    EXPECT_EQ(sink.packets(), 1u);
    EXPECT_EQ(sink.last().id, 77u);
    EXPECT_EQ(sink.last().size_bytes, 1500);
    EXPECT_EQ(s.now(), milliseconds(3));
}

TEST(Scheduler, PacketPoolRecyclesSlotsAcrossDeliveries) {
    Scheduler s;
    PacketLane lane{s};
    CountingSink sink;
    for (int i = 0; i < 10'000; ++i) {
        Packet p;
        p.id = static_cast<std::uint64_t>(i);
        lane.deliver_after(milliseconds(1), p, sink);
        s.run();
    }
    EXPECT_EQ(sink.packets(), 10'000u);
    // One delivery in flight at a time: the lane's ring never grows past its
    // first allocation no matter how many packets pass through, and packets
    // never touch the event arena.
    EXPECT_LE(lane.capacity(), 4u);
    EXPECT_EQ(lane.size(), 0u);
    EXPECT_EQ(s.arena_slots(), 0u);
}

TEST(Scheduler, ReserveDoesNotDisturbScheduling) {
    Scheduler s;
    s.reserve(1024);
    std::vector<int> order;
    s.schedule_at(milliseconds(2), [&] { order.push_back(2); });
    s.schedule_at(milliseconds(1), [&] { order.push_back(1); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(s.arena_slots(), 2u);
}

// --- reschedule -------------------------------------------------------------

TEST(SchedulerReschedule, MovingLaterKeepsTheIdAndFiresOnceAtTheNewTime) {
    Scheduler s;
    std::vector<std::pair<int, std::int64_t>> fired;
    const EventId id = s.schedule_at(milliseconds(10), [&] { fired.emplace_back(1, s.now().ns()); });
    s.schedule_at(milliseconds(15), [&] { fired.emplace_back(2, s.now().ns()); });
    EXPECT_EQ(s.reschedule(id, milliseconds(20)), id);
    s.check_invariants();
    EXPECT_EQ(s.live_events(), 2u);
    s.run_until(milliseconds(12));  // the lagging ticket is re-keyed, not run
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(s.executed_events(), 0u);
    s.check_invariants();
    s.run();
    EXPECT_EQ(fired, (std::vector<std::pair<int, std::int64_t>>{{2, milliseconds(15).ns()},
                                                                {1, milliseconds(20).ns()}}));
    EXPECT_EQ(s.executed_events(), 2u);
    EXPECT_EQ(s.cancelled_events(), 0u);
}

TEST(SchedulerReschedule, SameTimeMovesBehindEventsScheduledSince) {
    Scheduler s;
    std::vector<int> order;
    const EventId id = s.schedule_at(milliseconds(5), [&] { order.push_back(1); });
    s.schedule_at(milliseconds(5), [&] { order.push_back(2); });
    s.reschedule(id, milliseconds(5));  // takes a fresh insertion sequence
    s.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SchedulerReschedule, MovingEarlierFallsBackToCancelAndSchedule) {
    Scheduler s;
    std::vector<int> order;
    const EventId id = s.schedule_at(milliseconds(20), [&] { order.push_back(1); });
    s.schedule_at(milliseconds(10), [&] { order.push_back(2); });
    const EventId moved = s.reschedule(id, milliseconds(5));
    EXPECT_NE(moved, id);
    EXPECT_EQ(s.cancelled_events(), 1u);
    s.cancel(id);  // the old id is dead
    EXPECT_EQ(s.live_events(), 2u);
    s.check_invariants();
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerReschedule, CancelAfterRescheduleDropsTheEvent) {
    Scheduler s;
    int fired = 0;
    const EventId id = s.schedule_at(milliseconds(10), [&] { ++fired; });
    s.reschedule(id, milliseconds(30));
    s.reschedule(id, milliseconds(40));
    s.cancel(id);
    EXPECT_EQ(s.live_events(), 0u);
    s.check_invariants();
    s.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(s.executed_events(), 0u);
    EXPECT_EQ(s.now(), TimeNs::zero());  // a dropped ticket never moves the clock
}

TEST(SchedulerReschedule, IntoThePastThrows) {
    Scheduler s;
    const EventId id = s.schedule_at(milliseconds(10), [] {});
    s.schedule_at(milliseconds(5), [] {});
    s.run_until(milliseconds(5));
    EXPECT_THROW(s.reschedule(id, milliseconds(4)), std::invalid_argument);
    EXPECT_EQ(s.live_events(), 1u);
}

TEST(SchedulerRescheduleDeathTest, DeadIdAborts) {
    Scheduler s;
    const EventId id = s.schedule_at(milliseconds(1), [] {});
    s.run();
    EXPECT_DEATH(s.reschedule(id, milliseconds(2)), "reschedule of an event that is not pending");
}

// Replays one random script of timers — schedule, cancel, and restart at a
// random later or earlier time — either through reschedule() or, as the
// reference, as cancel() plus schedule_at() of an equivalent callable.
// Fired timers arm more, so the script covers moves made mid-run.
class RescheduleScript {
public:
    RescheduleScript(bool use_reschedule, std::uint64_t seed)
        : use_reschedule_{use_reschedule}, rng_{seed} {}

    void run(int initial, std::size_t cap) {
        cap_ = cap;
        det::Chain chain;
        {
            det::ScopedChain scope{chain};
            for (int i = 0; i < initial; ++i) step();
            sched_.run_until(milliseconds(30));
            for (int i = 0; i < initial; ++i) step();
            sched_.run();
        }
        digest_ = chain.digest();
    }

    [[nodiscard]] const std::vector<std::uint64_t>& fired() const { return fired_; }
    [[nodiscard]] std::uint64_t digest() const { return digest_; }
    [[nodiscard]] const Scheduler& sched() const { return sched_; }

private:
    struct Timer {
        EventId id{0};
        bool armed{false};
    };

    void fire(std::size_t timer, std::uint64_t label) {
        timers_[timer].armed = false;
        fired_.push_back(label);
        if (next_label_ >= cap_) return;
        const auto steps = rng_.uniform_int(1, 3);
        for (std::int64_t i = 0; i < steps; ++i) step();
    }

    void arm(std::size_t timer, TimeNs at) {
        const std::uint64_t label = next_label_++;
        Timer& t = timers_[timer];
        if (t.armed && use_reschedule_) {
            // The callable keeps its first label; the reference re-arms with
            // the same one so both sides record the same fire order.
            t.id = sched_.reschedule(t.id, at);
            return;
        }
        if (t.armed) sched_.cancel(t.id);
        const std::uint64_t kept = t.armed ? labels_[timer] : label;
        labels_[timer] = kept;
        t.id = sched_.schedule_at(at, [this, timer, kept] { fire(timer, kept); });
        t.armed = true;
    }

    void step() {
        if (timers_.size() < 64) {
            timers_.emplace_back();
            labels_.push_back(0);
        }
        const auto k = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(timers_.size()) - 1));
        const TimeNs at = sched_.now() + milliseconds(rng_.uniform_int(0, 8));
        if (rng_.uniform_int(0, 4) == 0) {
            if (timers_[k].armed) sched_.cancel(timers_[k].id);
            timers_[k].armed = false;
        } else {
            arm(k, at);
        }
    }

    bool use_reschedule_;
    Rng rng_;
    Scheduler sched_;
    std::vector<Timer> timers_;
    std::vector<std::uint64_t> labels_;
    std::vector<std::uint64_t> fired_;
    std::uint64_t next_label_{0};
    std::size_t cap_{0};
    std::uint64_t digest_{0};
};

TEST(SchedulerReschedule, RandomScriptDispatchesLikeCancelPlusSchedule) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 20051021ULL}) {
        SCOPED_TRACE(seed);
        RescheduleScript moved{true, seed};
        RescheduleScript reference{false, seed};
        moved.run(100, 5000);
        reference.run(100, 5000);
        ASSERT_GT(reference.fired().size(), 1000u);
        EXPECT_EQ(moved.fired(), reference.fired());
        EXPECT_EQ(moved.digest(), reference.digest());
        EXPECT_EQ(moved.sched().executed_events(), reference.sched().executed_events());
        EXPECT_EQ(moved.sched().now(), reference.sched().now());
        EXPECT_LT(moved.sched().cancelled_events(), reference.sched().cancelled_events());
        moved.sched().check_invariants();
    }
}

// --- lanes ------------------------------------------------------------------

// Replays one random script of heap events, event-lane events, packet
// deliveries and preset grids, and records the dispatch order.  In `grid`
// mode everything that can ride a lane does, and each grid is preset on a
// GridLane; in `lanes` mode each grid entry is instead pushed on an
// EventLane one by one; in `heap` mode, the reference, every event goes
// through schedule_at.  Lane k has a fixed delay of k ms, heap delays are
// whole milliseconds and grid steps are 0.5 or 1 ms with repeated indices,
// so equal times across the heap and several lanes are common.  Fired
// events spawn more, so the script also covers pushes and presets made
// mid-run, a grid's re-preset from inside its own last entry included.  An
// event lane's entries carry no payload, so the script queues each entry's
// label beside its lane.
class LaneScript final : public PacketSink {
public:
    enum class Mode { heap, lanes, grid };
    static constexpr int kLanes = 3;

    LaneScript(Mode mode, std::uint64_t seed) : mode_{mode}, rng_{seed} {
        for (std::size_t k = 0; k < kLanes; ++k) {
            events_.push_back(std::make_unique<EventLane>(sched_, [this, k] {
                const std::uint64_t label = labels_[k].front();
                labels_[k].pop_front();
                fire(label);
            }));
            packets_.push_back(std::make_unique<PacketLane>(sched_));
            grids_.push_back(std::make_unique<GridLane>(
                sched_, [this, k](std::size_t j) { fire_grid(k, j); }));
            grid_pushes_.push_back(std::make_unique<EventLane>(
                sched_, [this, k] { fire_grid(k, grid_cursor_[k]++); }));
        }
    }

    void run(int initial, std::size_t cap) {
        cap_ = cap;
        det::Chain chain;
        {
            det::ScopedChain scope{chain};
            for (int i = 0; i < initial; ++i) spawn();
            sched_.run_until(milliseconds(40));
            sched_.check_invariants();
            sched_.run();
        }
        digest_ = chain.digest();
    }

    void accept(const Packet& pkt) override { fire(pkt.id); }

    [[nodiscard]] const std::vector<std::uint64_t>& fired() const { return fired_; }
    [[nodiscard]] std::uint64_t digest() const { return digest_; }
    [[nodiscard]] const Scheduler& sched() const { return sched_; }
    [[nodiscard]] std::size_t grids_preset() const { return grids_preset_; }

private:
    void fire(std::uint64_t label) {
        fired_.push_back(label);
        if (next_label_ >= cap_) return;
        const auto spawns = rng_.uniform_int(0, 3);
        for (std::int64_t i = 0; i < spawns; ++i) spawn();
    }

    void fire_grid(std::size_t k, std::size_t j) {
        --grid_pending_[k];
        fire(grid_labels_[k][j]);
    }

    // A grid of 1..8 entries at lane k's delay, once the last one drained.
    void preset_grid(std::size_t k, std::uint64_t label) {
        if (grid_pending_[k] != 0) return;
        const auto n = static_cast<std::size_t>(rng_.uniform_int(1, 8));
        const TimeNs step = microseconds(500) * rng_.uniform_int(1, 2);
        const TimeNs origin = sched_.now() + milliseconds(static_cast<std::int64_t>(k));
        std::vector<std::int64_t>& idx = grid_idx_[k];
        idx.assign(1, rng_.uniform_int(0, 2));
        while (idx.size() < n) idx.push_back(idx.back() + rng_.uniform_int(0, 2));
        grid_labels_[k].assign(1, label);
        while (grid_labels_[k].size() < n) grid_labels_[k].push_back(next_label_++);
        grid_pending_[k] = n;
        grid_cursor_[k] = 0;
        ++grids_preset_;
        switch (mode_) {
            case Mode::grid:
                grids_[k]->preset(origin, step, idx);
                break;
            case Mode::lanes:
                for (const std::int64_t i : idx) grid_pushes_[k]->schedule_at(origin + step * i);
                break;
            case Mode::heap:
                for (std::size_t j = 0; j < n; ++j) {
                    sched_.schedule_at(origin + step * idx[j], [this, k, j] { fire_grid(k, j); });
                }
                break;
        }
    }

    void spawn() {
        const std::uint64_t label = next_label_++;
        const auto k = static_cast<std::size_t>(rng_.uniform_int(0, kLanes - 1));
        const TimeNs lane_delay = milliseconds(static_cast<std::int64_t>(k));
        switch (rng_.uniform_int(0, 4)) {
            case 0:
                ids_.push_back(sched_.schedule_after(milliseconds(rng_.uniform_int(0, 3)),
                                                     [this, label] { fire(label); }));
                break;
            case 1:
                if (mode_ != Mode::heap) {
                    labels_[k].push_back(label);
                    events_[k]->schedule_after(lane_delay);
                } else {
                    sched_.schedule_after(lane_delay, [this, label] { fire(label); });
                }
                break;
            case 2: {
                Packet pkt;
                pkt.id = label;
                if (mode_ != Mode::heap) {
                    packets_[k]->deliver_after(lane_delay, pkt, *this);
                } else {
                    sched_.schedule_after(lane_delay, [this, pkt] { accept(pkt); });
                }
                break;
            }
            case 3:
                preset_grid(k, label);
                break;
            default:
                if (!ids_.empty()) {
                    const auto i = rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1);
                    sched_.cancel(ids_[static_cast<std::size_t>(i)]);
                }
                break;
        }
    }

    Mode mode_;
    Rng rng_;
    Scheduler sched_;
    std::deque<std::uint64_t> labels_[kLanes];
    std::vector<std::unique_ptr<EventLane>> events_;
    std::vector<std::unique_ptr<PacketLane>> packets_;
    std::vector<std::unique_ptr<GridLane>> grids_;
    std::vector<std::unique_ptr<EventLane>> grid_pushes_;
    // Per grid: its index list (alive while entries pend), entry labels,
    // pending count and, for per-entry pushes, the next entry to fire.
    std::vector<std::int64_t> grid_idx_[kLanes];
    std::vector<std::uint64_t> grid_labels_[kLanes];
    std::size_t grid_pending_[kLanes]{};
    std::size_t grid_cursor_[kLanes]{};
    std::size_t grids_preset_{0};
    std::vector<EventId> ids_;
    std::vector<std::uint64_t> fired_;
    std::uint64_t next_label_{0};
    std::size_t cap_{0};
    std::uint64_t digest_{0};
};

TEST(SchedulerLanes, RandomScriptDispatchesLikeOneHeap) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 20051021ULL}) {
        SCOPED_TRACE(seed);
        LaneScript grid{LaneScript::Mode::grid, seed};
        LaneScript lanes{LaneScript::Mode::lanes, seed};
        LaneScript heap{LaneScript::Mode::heap, seed};
        grid.run(200, 5000);
        lanes.run(200, 5000);
        heap.run(200, 5000);
        ASSERT_GT(heap.fired().size(), 1000u);
        ASSERT_GT(heap.grids_preset(), 30u);
        // A preset grid dispatches, and folds the chain, exactly as the same
        // entries pushed one by one on an event lane, and both as one heap.
        EXPECT_EQ(grid.fired(), lanes.fired());
        EXPECT_EQ(grid.digest(), lanes.digest());
        EXPECT_EQ(lanes.fired(), heap.fired());
        EXPECT_EQ(lanes.digest(), heap.digest());
        for (const LaneScript* run : {&grid, &lanes}) {
            EXPECT_EQ(run->sched().executed_events(), heap.sched().executed_events());
            EXPECT_EQ(run->sched().cancelled_events(), heap.sched().cancelled_events());
            EXPECT_EQ(run->sched().now(), heap.sched().now());
            EXPECT_LT(run->sched().arena_slots(), heap.sched().arena_slots());
            run->sched().check_invariants();
        }
    }
}

TEST(SchedulerLanes, TiesAcrossHeapAndLanesBreakByInsertionOrder) {
    Scheduler s;
    std::vector<std::uint64_t> order;
    std::deque<std::uint64_t> lane_labels{1, 4};
    EventLane events{s, [&] {
                         order.push_back(lane_labels.front());
                         lane_labels.pop_front();
                     }};
    PacketLane packets{s};
    struct Recorder final : PacketSink {
        std::vector<std::uint64_t>* order;
        void accept(const Packet& pkt) override { order->push_back(pkt.id); }
    } sink;
    sink.order = &order;
    Packet p;
    p.id = 2;
    events.schedule_at(milliseconds(5));
    packets.deliver_after(milliseconds(5), p, sink);
    s.schedule_at(milliseconds(5), [&] { order.push_back(3); });
    events.schedule_at(milliseconds(5));
    s.schedule_at(milliseconds(4), [&] { order.push_back(0); });
    s.run();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(SchedulerLanes, PendingAndLiveAccountingCoverLanes) {
    Scheduler s;
    int lane_fired = 0;
    EventLane events{s, [&] { ++lane_fired; }};
    PacketLane packets{s};
    CountingSink sink;
    const Packet p{};
    for (int i = 1; i <= 3; ++i) packets.deliver_after(milliseconds(i), p, sink);
    events.schedule_at(milliseconds(2));
    events.schedule_at(milliseconds(4));
    const EventId doomed = s.schedule_at(milliseconds(1), [] {});
    s.schedule_at(milliseconds(5), [] {});
    s.cancel(doomed);
    EXPECT_EQ(s.live_events(), 6u);
    EXPECT_EQ(s.pending_events(), 7u);  // 2 heap tickets (1 stale) + 5 lane entries
    EXPECT_EQ(s.arena_slots(), 2u);     // heap events only: lane entries take none
    s.check_invariants();

    s.run_until(milliseconds(2));  // packets at 1, 2 ms and the 2 ms lane event
    EXPECT_EQ(sink.packets(), 2u);
    EXPECT_EQ(lane_fired, 1);
    EXPECT_EQ(s.live_events(), 3u);
    EXPECT_EQ(s.pending_events(), 3u);
    EXPECT_EQ(packets.size(), 1u);
    EXPECT_EQ(events.size(), 1u);
    s.check_invariants();

    s.run();
    EXPECT_EQ(lane_fired, 2);
    EXPECT_EQ(s.live_events(), 0u);
    EXPECT_EQ(s.pending_events(), 0u);
    EXPECT_EQ(s.executed_events(), 6u);
    EXPECT_EQ(s.cancelled_events(), 1u);
    s.check_invariants();
}

TEST(SchedulerLanes, DestroyedLaneDropsItsPendingEntries) {
    Scheduler s;
    int fired = 0;
    CountingSink sink;
    {
        EventLane events{s, [&] { ++fired; }};
        PacketLane packets{s};
        events.schedule_at(milliseconds(1));
        packets.deliver_after(milliseconds(1), Packet{}, sink);
        EXPECT_EQ(s.live_events(), 2u);
    }
    EXPECT_EQ(s.live_events(), 0u);
    EXPECT_EQ(s.pending_events(), 0u);
    s.check_invariants();
    s.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(sink.packets(), 0u);
    EXPECT_EQ(s.arena_slots(), 0u);
}

TEST(SchedulerLanes, LaneMayOutliveItsScheduler) {
    auto s = std::make_unique<Scheduler>();
    auto events = std::make_unique<EventLane>(*s, [] {});
    events->schedule_at(milliseconds(1));
    s.reset();
    events.reset();  // must not touch the destroyed scheduler
    SUCCEED();
}

TEST(SchedulerLanes, LanePushIntoThePastThrowsLikeScheduleAt) {
    Scheduler s;
    EventLane events{s, [] {}};
    s.schedule_at(milliseconds(10), [] {});
    s.run();
    EXPECT_THROW(events.schedule_at(milliseconds(5)), std::invalid_argument);
    EXPECT_EQ(s.live_events(), 0u);
}

TEST(SchedulerLanesDeathTest, LanePushBackInTimeAborts) {
    Scheduler s;
    EventLane events{s, [] {}};
    events.schedule_at(milliseconds(5));
    EXPECT_DEATH(events.schedule_at(milliseconds(3)), "lane push goes back in time");
    PacketLane packets{s};
    CountingSink sink;
    packets.deliver_after(milliseconds(5), Packet{}, sink);
    EXPECT_DEATH(packets.deliver_after(milliseconds(3), Packet{}, sink),
                 "lane push goes back in time");
}

TEST(SchedulerGridLane, DispatchesAtGridTimesWithTheEntryIndex) {
    Scheduler s;
    std::vector<std::pair<std::size_t, TimeNs>> fired;
    GridLane grid{s, [&](std::size_t k) { fired.emplace_back(k, s.now()); }};
    const std::vector<std::int64_t> idx{0, 2, 2, 7};
    grid.preset(milliseconds(3), milliseconds(5), idx);
    EXPECT_EQ(grid.size(), 4u);
    EXPECT_EQ(s.live_events(), 4u);
    EXPECT_EQ(s.pending_events(), 4u);
    EXPECT_EQ(s.arena_slots(), 0u);
    s.check_invariants();
    s.run();
    const std::vector<std::pair<std::size_t, TimeNs>> expected{
        {0, milliseconds(3)}, {1, milliseconds(13)}, {2, milliseconds(13)}, {3, milliseconds(38)}};
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(grid.size(), 0u);
    EXPECT_EQ(s.executed_events(), 4u);
    s.check_invariants();

    // Drained, the lane takes a new grid.
    grid.preset(milliseconds(40), milliseconds(1), idx);
    s.run();
    EXPECT_EQ(fired.size(), 8u);
    EXPECT_EQ(fired.back(), (std::pair<std::size_t, TimeNs>{3, milliseconds(47)}));
}

TEST(SchedulerGridLane, EmptyGridTakesNothing) {
    // The hash chain folds every dispatch's (time, seq), so an empty preset
    // that took a sequence number would move the later heap event's fold.
    const auto digest = [](bool with_grid) {
        det::Chain chain;
        det::ScopedChain scope{chain};
        Scheduler s;
        GridLane grid{s, [](std::size_t) {}};
        if (with_grid) {
            grid.preset(milliseconds(1), milliseconds(5), std::span<const std::int64_t>{});
            EXPECT_EQ(grid.size(), 0u);
            EXPECT_EQ(s.live_events(), 0u);
            EXPECT_EQ(s.pending_events(), 0u);
            s.check_invariants();
        }
        s.schedule_at(milliseconds(2), [] {});
        s.run();
        EXPECT_EQ(s.executed_events(), 1u);
        return chain.digest();
    };
    EXPECT_EQ(digest(true), digest(false));
}

TEST(SchedulerGridLane, DestroyedMidRunKeepsAccountingExact) {
    Scheduler s;
    int fired = 0;
    const std::vector<std::int64_t> idx{1, 2, 3, 4, 5, 6};
    auto grid = std::make_unique<GridLane>(s, [&](std::size_t) { ++fired; });
    grid->preset(TimeNs::zero(), milliseconds(1), idx);
    s.schedule_at(milliseconds(10), [] {});
    EXPECT_EQ(s.live_events(), 7u);
    s.run_until(milliseconds(3));
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(s.live_events(), 4u);
    grid.reset();
    EXPECT_EQ(s.live_events(), 1u);
    EXPECT_EQ(s.pending_events(), 1u);
    s.check_invariants();
    s.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(s.executed_events(), 4u);
    EXPECT_EQ(s.live_events(), 0u);
    s.check_invariants();
}

TEST(SchedulerGridLane, PresetIntoThePastThrowsLikeScheduleAt) {
    Scheduler s;
    GridLane grid{s, [](std::size_t) {}};
    s.schedule_at(milliseconds(10), [] {});
    s.run();
    const std::vector<std::int64_t> idx{1, 2};
    EXPECT_THROW(grid.preset(TimeNs::zero(), milliseconds(5), idx), std::invalid_argument);
    EXPECT_EQ(s.live_events(), 0u);
    EXPECT_EQ(grid.size(), 0u);
    s.check_invariants();
}

TEST(SchedulerGridLaneDeathTest, PresetWhileEntriesPendAborts) {
    Scheduler s;
    GridLane grid{s, [](std::size_t) {}};
    const std::vector<std::int64_t> idx{1, 2};
    grid.preset(TimeNs::zero(), milliseconds(5), idx);
    EXPECT_DEATH(grid.preset(TimeNs::zero(), milliseconds(5), idx),
                 "grid lane preset while entries are pending");
}

TEST(PacketPool, PutTakeRoundTripsAndReuses) {
    PacketPool pool;
    Packet a;
    a.id = 1;
    const PacketPool::Handle ha = pool.put(a);
    Packet b;
    b.id = 2;
    const PacketPool::Handle hb = pool.put(b);
    EXPECT_EQ(pool.in_use(), 2u);
    EXPECT_EQ(pool.take(ha).id, 1u);
    EXPECT_EQ(pool.take(hb).id, 2u);
    EXPECT_EQ(pool.in_use(), 0u);
    Packet c;
    c.id = 3;
    const PacketPool::Handle hc = pool.put(c);
    EXPECT_LT(hc, 2u);  // recycled one of the two existing slots
    EXPECT_EQ(pool.take(hc).id, 3u);
    EXPECT_EQ(pool.capacity(), 2u);
}

}  // namespace
}  // namespace bb::sim

// Death tests for the contract layer (src/util/contract.h, DESIGN.md §10):
// the macros themselves, plus proof that the deep invariant walkers catch
// real corruption.  This target compiles with BB_CONTRACTS_ENABLED=1 (so
// BB_DCHECK is live regardless of build type) and BB_TESTING (which friends
// SchedulerTestAccess into Scheduler so the tests can damage private state).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/packet_pool.h"
#include "sim/scheduler.h"
#include "util/contract.h"
#include "util/time.h"

namespace bb::sim {

// Mutable windows into Scheduler's private state.  The nested Ticket/Slot
// types stay unnameable here; tests hold them through auto, which the access
// rules permit (only the *names* are private).
struct SchedulerTestAccess {
    static auto& heap(Scheduler& s) { return s.heap_; }
    static auto& arena(Scheduler& s) { return s.arena_; }
    static std::size_t& live(Scheduler& s) { return s.live_; }
    static std::size_t& lane_pending(Scheduler& s) { return s.lane_pending_; }
    template <typename Entry>
    static auto& ring(RingLane<Entry>& lane) {
        return lane.ring_;
    }
    static auto& front(GridLane& lane) { return lane.front_; }
};

}  // namespace bb::sim

namespace {

using bb::TimeNs;
using bb::milliseconds;
using bb::sim::EventLane;
using bb::sim::GridLane;
using bb::sim::PacketLane;
using bb::sim::PacketPool;
using bb::sim::Scheduler;
using bb::sim::SchedulerTestAccess;

// --- the macros themselves ----------------------------------------------

TEST(ContractTest, CheckPassesSilently) {
    int evaluations = 0;
    BB_CHECK(++evaluations == 1);
    EXPECT_EQ(evaluations, 1);  // condition evaluated exactly once
    BB_CHECK_MSG(true, "never printed");
}

TEST(ContractDeathTest, CheckAbortsWithExpressionAndLocation) {
    EXPECT_DEATH(BB_CHECK(1 + 1 == 3), "BB_CHECK failed: 1 \\+ 1 == 3");
    EXPECT_DEATH(BB_CHECK(false), "contract_test\\.cpp");
}

TEST(ContractDeathTest, CheckMsgPrintsTheNote) {
    EXPECT_DEATH(BB_CHECK_MSG(false, "tally drifted"), "note: tally drifted");
}

TEST(ContractDeathTest, DcheckIsLiveInThisTarget) {
    static_assert(BB_CONTRACTS_ENABLED == 1,
                  "contract_test must build with BB_CONTRACTS_ENABLED=1");
    EXPECT_DEATH(BB_DCHECK(false), "BB_DCHECK failed");
    EXPECT_DEATH(BB_DCHECK_MSG(2 < 1, "order"), "note: order");
}

TEST(ContractTest, AuditIsUnevaluatedWhenDisabled) {
#if !BB_AUDIT_ENABLED
    int evaluations = 0;
    BB_AUDIT(++evaluations);
    EXPECT_EQ(evaluations, 0);  // off-form must not evaluate its argument
#else
    GTEST_SKIP() << "BB_AUDIT_ENABLED build: the audit form evaluates";
#endif
}

// --- scheduler invariant walker -----------------------------------------

// Fill a scheduler as if mid-run: a few dozen pending events, optionally
// recording a subset of ids for the caller to cancel.
void populate(Scheduler& s, std::vector<bb::sim::EventId>* cancel_ids = nullptr) {
    for (int i = 0; i < 32; ++i) {
        const auto id = s.schedule_after(milliseconds(10 + i), [] {});
        if (cancel_ids && i % 5 == 0) cancel_ids->push_back(id);
    }
}

TEST(ContractTest, HealthySchedulerPassesInvariants) {
    std::vector<bb::sim::EventId> to_cancel;
    Scheduler s;
    populate(s, &to_cancel);
    s.check_invariants();
    for (const auto id : to_cancel) s.cancel(id);
    s.check_invariants();
    s.run_until(milliseconds(25));
    s.check_invariants();
    s.run();
    s.check_invariants();
    EXPECT_EQ(s.live_events(), 0U);
}

TEST(ContractDeathTest, WalkerCatchesHeapOrderViolation) {
    Scheduler s;
    populate(s);
    auto& heap = SchedulerTestAccess::heap(s);
    ASSERT_GT(heap.size(), 1U);
    // Make a child earlier than the root: classic broken-sift damage.
    heap.back().at = TimeNs::zero();
    heap.back().seq = 0;
    EXPECT_DEATH(s.check_invariants(), "heap order violated");
}

TEST(ContractDeathTest, WalkerCatchesGenerationAhead) {
    Scheduler s;
    populate(s);
    auto& heap = SchedulerTestAccess::heap(s);
    ASSERT_FALSE(heap.empty());
    // A ticket from the future: its generation exceeds the arena slot's.
    heap[0].gen += 1;
    EXPECT_DEATH(s.check_invariants(), "generation ahead of its arena slot");
}

TEST(ContractDeathTest, WalkerCatchesEmptySlotBehindLiveTicket) {
    Scheduler s;
    populate(s);
    auto& heap = SchedulerTestAccess::heap(s);
    auto& arena = SchedulerTestAccess::arena(s);
    ASSERT_FALSE(heap.empty());
    // Destroy the callable out from under a live ticket (a premature
    // release_slot would look like this, minus the generation bump).
    arena[heap[0].slot].fn.reset();
    EXPECT_DEATH(s.check_invariants(), "empty arena slot");
}

TEST(ContractDeathTest, WalkerCatchesLiveCountDrift) {
    Scheduler s;
    populate(s);
    ++SchedulerTestAccess::live(s);
    EXPECT_DEATH(s.check_invariants(), "live-event accounting drifted");
}

TEST(ContractDeathTest, WalkerCatchesTicketSlotOutOfBounds) {
    Scheduler s;
    populate(s);
    auto& heap = SchedulerTestAccess::heap(s);
    ASSERT_FALSE(heap.empty());
    heap[0].slot = 0xFFFF'0000u;
    EXPECT_DEATH(s.check_invariants(), "slot out of bounds");
}

TEST(ContractDeathTest, WalkerCatchesTicketKeyedPastItsDueKey) {
    Scheduler s;
    populate(s);
    auto& heap = SchedulerTestAccess::heap(s);
    auto& arena = SchedulerTestAccess::arena(s);
    ASSERT_FALSE(heap.empty());
    // A reschedule may only move an event later, so its ticket can lag its
    // due key but never lead it; this one would surface after it was due.
    arena[heap[0].slot].due.at = heap[0].at - milliseconds(1);
    EXPECT_DEATH(s.check_invariants(), "ticket keyed later than its event's due key");
}

TEST(ContractTest, RescheduledTicketsPassInvariants) {
    Scheduler s;
    std::vector<bb::sim::EventId> ids;
    for (int i = 0; i < 32; ++i) ids.push_back(s.schedule_after(milliseconds(10 + i), [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 3) {
        ids[i] = s.reschedule(ids[i], milliseconds(50 + static_cast<std::int64_t>(i)));
        s.check_invariants();
    }
    s.run_until(milliseconds(30));
    s.check_invariants();
    s.run();
    s.check_invariants();
    EXPECT_EQ(s.executed_events(), 32U);
}

// --- lanes ----------------------------------------------------------------

// A few packet-lane deliveries and event-lane entries beside the heap.
void populate_lanes(Scheduler& s, PacketLane& packets, EventLane& events,
                    bb::sim::PacketSink& sink) {
    populate(s);
    for (int i = 0; i < 4; ++i) {
        packets.deliver_after(milliseconds(1 + i), bb::sim::Packet{}, sink);
        events.schedule_at(milliseconds(2 + i));
    }
}

TEST(ContractTest, HealthyLanesPassInvariants) {
    Scheduler s;
    PacketLane packets{s};
    EventLane events{s, [] {}};
    bb::sim::CountingSink sink;
    populate_lanes(s, packets, events, sink);
    s.check_invariants();
    s.run_until(milliseconds(3));
    s.check_invariants();
    s.run();
    s.check_invariants();
    EXPECT_EQ(s.live_events(), 0U);
}

TEST(ContractTest, CompactionWhileLanesHoldEntries) {
    Scheduler s;
    PacketLane packets{s};
    EventLane events{s, [] {}};
    bb::sim::CountingSink sink;
    populate_lanes(s, packets, events, sink);
    std::vector<bb::sim::EventId> ids;
    for (int i = 0; i < 400; ++i) ids.push_back(s.schedule_after(milliseconds(100 + i), [] {}));
    // Cancel enough to trip the mostly-stale compaction; its kept-ticket
    // check must not count the lane entries as heap tickets.
    for (const auto id : ids) s.cancel(id);
    EXPECT_LT(s.pending_events(), 400U);
    EXPECT_EQ(s.live_events(), 32U + 8U);
    s.check_invariants();
    s.run();
    EXPECT_EQ(s.executed_events(), 32U + 8U);
}

TEST(ContractDeathTest, WalkerCatchesLaneOrderViolation) {
    Scheduler s;
    PacketLane packets{s};
    EventLane events{s, [] {}};
    bb::sim::CountingSink sink;
    populate_lanes(s, packets, events, sink);
    auto& ring = SchedulerTestAccess::ring(packets);
    ASSERT_EQ(ring.size(), 4U);
    // An entry that would overtake its successor: the FIFO is no longer the
    // lane's time order, so dispatching its front could skip an earlier one.
    ring[1].at = milliseconds(9);
    EXPECT_DEATH(s.check_invariants(), "lane order violated");
}

TEST(ContractDeathTest, WalkerCatchesEventLaneOrderViolation) {
    Scheduler s;
    PacketLane packets{s};
    EventLane events{s, [] {}};
    bb::sim::CountingSink sink;
    populate_lanes(s, packets, events, sink);
    auto& ring = SchedulerTestAccess::ring(events);
    ASSERT_EQ(ring.size(), 4U);
    ring[2] = ring[1];  // a duplicated key: two entries cannot share a dispatch
    EXPECT_DEATH(s.check_invariants(), "lane order violated");
}

TEST(ContractDeathTest, WalkerCatchesLaneAccountingDrift) {
    Scheduler s;
    PacketLane packets{s};
    EventLane events{s, [] {}};
    bb::sim::CountingSink sink;
    populate_lanes(s, packets, events, sink);
    ++SchedulerTestAccess::lane_pending(s);
    EXPECT_DEATH(s.check_invariants(), "lane accounting drifted");
}

// A grid lane beside the heap and the ring lanes; `idx` must outlive it.
void populate_grid(Scheduler& s, GridLane& grid, const std::vector<std::int64_t>& idx) {
    populate(s);
    grid.preset(milliseconds(1), milliseconds(1), idx);
}

TEST(ContractTest, HealthyGridLanePassesInvariants) {
    Scheduler s;
    GridLane grid{s, [](std::size_t) {}};
    const std::vector<std::int64_t> idx{0, 1, 1, 4};
    populate_grid(s, grid, idx);
    s.check_invariants();
    s.run_until(milliseconds(2));
    s.check_invariants();
    s.run();
    s.check_invariants();
    EXPECT_EQ(s.live_events(), 0U);
}

TEST(ContractDeathTest, WalkerCatchesStaleGridFront) {
    Scheduler s;
    GridLane grid{s, [](std::size_t) {}};
    const std::vector<std::int64_t> idx{0, 1, 1, 4};
    populate_grid(s, grid, idx);
    s.run_until(milliseconds(1));
    // A front that still names the entry that already ran.
    --SchedulerTestAccess::front(grid).seq;
    EXPECT_DEATH(s.check_invariants(), "lane front key out of date");
}

TEST(ContractDeathTest, WalkerCatchesGridOrderViolation) {
    Scheduler s;
    GridLane grid{s, [](std::size_t) {}};
    std::vector<std::int64_t> idx{0, 1, 2, 4};
    populate_grid(s, grid, idx);
    idx[2] = 9;  // the owner broke its promise to keep the list sorted
    EXPECT_DEATH(s.check_invariants(), "lane order violated");
}

// --- packet pool walker --------------------------------------------------

TEST(ContractTest, PacketPoolRoundTripPassesInvariants) {
    PacketPool pool;
    bb::sim::Packet pkt{};
    pkt.size_bytes = 600;
    const auto h1 = pool.put(pkt);
    const auto h2 = pool.put(pkt);
    pool.check_invariants();
    (void)pool.take(h1);
    pool.check_invariants();
    (void)pool.take(h2);
    pool.check_invariants();
    EXPECT_EQ(pool.in_use(), 0U);
}

TEST(ContractDeathTest, PacketPoolWalkerCatchesDoubleTake) {
    PacketPool pool;
    bb::sim::Packet pkt{};
    const auto h = pool.put(pkt);
    (void)pool.put(pkt);  // keep in_use() > 0 so take()'s own DCHECK stays quiet
    (void)pool.take(h);
    (void)pool.take(h);  // the bug: same handle surrendered twice
    EXPECT_DEATH(pool.check_invariants(), "double take");
}

TEST(ContractDeathTest, PacketPoolTakeRejectsWildHandle) {
    PacketPool pool;
    bb::sim::Packet pkt{};
    (void)pool.put(pkt);
    EXPECT_DEATH((void)pool.take(42), "handle out of bounds");
}

}  // namespace

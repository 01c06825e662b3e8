// Discrete-event scheduler.
//
// Events are closures ordered by (time, insertion sequence); ties are broken
// by insertion order so runs are fully deterministic.  Events can be
// cancelled or moved to a later time (TCP retransmission timers).
//
// Hot-path design (DESIGN.md §9):
//   * Events are move-only UniqueFunction<void()> callables — captures up to
//     48 bytes live inline, so the common [this]-style events never touch
//     the heap.
//   * Event bodies are parked in a free-list arena; the ready queue is an
//     implicit 4-ary heap of 24-byte tickets (time, sequence, slot,
//     generation), which halves the tree depth of a binary heap and keeps
//     sift paths inside one or two cache lines.
//   * Cancellation bumps the arena slot's generation counter — O(1), no
//     hashing.  Tickets whose generation no longer matches are dropped
//     lazily at pop time; when more than half the heap is stale it is
//     compacted in place, so schedule/cancel churn can never grow the heap
//     (or the cancel bookkeeping) without bound.
//   * Re-keying: reschedule() moves a pending event to a later time without
//     touching the heap.  It takes the insertion sequence cancel-plus-
//     schedule_at would, records the new key as the slot's due key, and
//     leaves the old ticket in place; a ticket keyed earlier than its slot's
//     due key is re-keyed and sifted down when it reaches the heap top.  A
//     ticket can only lag its due key, never lead it, so it surfaces no
//     later than the event is due and dispatch keys are those of a cancel
//     plus schedule_at.  A move to an earlier time is a cancel plus
//     schedule_at.
//   * Events an owner schedules in non-decreasing time order bypass the heap
//     on a lane: a FIFO ring the owner holds.  A PacketLane carries packets
//     inline (fixed-delay links, queue propagation); an EventLane carries
//     bare (time, seq) keys and runs the one handler its owner installed (a
//     queue's transmission completion, BADABING's probe schedule), so its
//     entries take no arena slot and no closure.  Lane entries take the same
//     insertion sequence a heap push would, and run_until() dispatches the
//     (time, seq) minimum over the heap top and every lane front, so
//     dispatch order is exactly that of one heap.  Lane entries are never
//     cancelled.
#ifndef BB_SIM_SCHEDULER_H
#define BB_SIM_SCHEDULER_H

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/packet.h"
#include "sim/packet_pool.h"
#include "util/contract.h"
#include "util/func.h"
#include "util/time.h"

namespace bb::sim {

// (generation << 32) | arena slot.  Ids are never reused: recycling a slot
// bumps its generation, so a stale id can neither cancel nor observe the
// event that now occupies the slot.
using EventId = std::uint64_t;

using Event = UniqueFunction<void()>;

class Scheduler;

namespace detail {

// Dispatch key of a pending event: its time, then its insertion sequence.
struct EventKey {
    TimeNs at;
    std::uint64_t seq;
};

// Front key of an empty lane: later than any event.
inline constexpr EventKey kIdle{TimeNs::max(), ~std::uint64_t{0}};

[[nodiscard]] constexpr bool earlier(const EventKey& a, const EventKey& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
}

// 24-byte event ticket; the callable stays put in the scheduler's arena
// while the ticket percolates through the heap, so sifts move 24 bytes
// instead of a closure.  A live ticket's key is its slot's due key, or an
// earlier one the event was rescheduled away from.
struct Ticket {
    TimeNs at;
    std::uint64_t seq;  // insertion order, the deterministic tie-break
    std::uint32_t slot;
    std::uint32_t gen;
};
// The heap sifts move tickets with plain assignment and the perf model
// assumes a 24-byte copy; a non-trivial or padded Ticket would silently
// break both.
static_assert(std::is_trivially_copyable_v<Ticket>);
static_assert(sizeof(Ticket) == 24);

// FIFO ring with power-of-two capacity that doubles when full.  Storage is
// left uninitialized until an entry is pushed, so growing touches no more
// memory than the entries copied.
template <typename T>
class Ring {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                  "entries are copied into raw storage and never destroyed");

public:
    Ring() = default;
    Ring(const Ring&) = delete;
    Ring& operator=(const Ring&) = delete;
    ~Ring() {
        if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    }

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
    // i-th entry from the front.
    [[nodiscard]] T& operator[](std::size_t i) noexcept { return buf_[(head_ + i) & (cap_ - 1)]; }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
        return buf_[(head_ + i) & (cap_ - 1)];
    }
    [[nodiscard]] const T& front() const noexcept { return buf_[head_]; }
    [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }

    void push_back(const T& v) {
        if (size_ == cap_) grow();
        std::construct_at(buf_ + ((head_ + size_) & (cap_ - 1)), v);
        ++size_;
    }
    void pop_front() noexcept {
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

private:
    void grow() {
        const std::size_t cap = cap_ == 0 ? 4 : 2 * cap_;
        T* next = std::allocator<T>{}.allocate(cap);
        for (std::size_t i = 0; i < size_; ++i) std::construct_at(next + i, (*this)[i]);
        if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
        buf_ = next;
        cap_ = cap;
        head_ = 0;
    }

    T* buf_{nullptr};
    std::size_t cap_{0};
    std::size_t head_{0};
    std::size_t size_{0};
};

}  // namespace detail

// The scheduler's view of a lane.  Lanes register with their scheduler on
// construction and leave it on destruction (dropping any pending entries);
// a lane that outlives its scheduler is inert.
class Lane {
public:
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

protected:
    explicit Lane(Scheduler& sched);
    ~Lane() = default;

    Scheduler* sched_;
    detail::EventKey front_{detail::kIdle};  // key of the front entry

private:
    friend class Scheduler;
    // Pop the front entry and run it; the scheduler has already advanced the
    // clock and done the dispatch bookkeeping.
    virtual void fire_front() = 0;
    // Invariant walker: entry order and front key.  Returns the number of
    // pending entries.
    virtual std::size_t check_entries() const = 0;
};

class Scheduler {
public:
    Scheduler() = default;
    ~Scheduler();
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    [[nodiscard]] TimeNs now() const noexcept { return now_; }

    // Schedule `fn` to run at absolute time `at` (>= now).  The callable is
    // constructed directly in its arena slot — no intermediate Event moves.
    template <typename F>
    EventId schedule_at(TimeNs at, F&& fn) {
        if constexpr (std::is_same_v<std::decay_t<F>, Event>) {
            return schedule_event(at, std::forward<F>(fn));
        } else {
            check_future(at);
            const std::uint32_t s = acquire_raw_slot();
            arena_[s].fn.emplace(std::forward<F>(fn));
            return commit_slot(at, s);
        }
    }

    // Schedule `fn` to run `delay` after the current time.
    template <typename F>
    EventId schedule_after(TimeNs delay, F&& fn) {
        return schedule_at(now_ + delay, std::forward<F>(fn));
    }

    // Cancel a pending event.  Cancelling an already-fired or unknown id is a
    // harmless O(1) no-op.
    void cancel(EventId id) noexcept;

    // Move the pending event `id` to absolute time `at` (>= now) and return
    // its id from now on.  Dispatch is exactly that of cancel(id) followed
    // by schedule_at(at, <the same callable>); a move to a time no earlier
    // than the event's current one is O(1) and keeps the id.  Rescheduling a
    // fired, cancelled or unknown id aborts.
    EventId reschedule(EventId id, TimeNs at);

    // Run events until the queue is empty or simulated time would exceed
    // `t_end`.  Events scheduled exactly at `t_end` run.  On return, now() is
    // max(now, t_end) if the horizon was reached, else the last event time.
    void run_until(TimeNs t_end);

    // Run until the event queue drains completely.
    void run() { run_until(TimeNs::max()); }

    // Pre-size the event arena and ready queue (and the packet pool) so the
    // steady state performs no allocations at all.
    void reserve(std::size_t events);

    // Heap tickets (cancelled-but-uncompacted ones included) plus lane
    // entries: an upper bound on live events.
    [[nodiscard]] std::size_t pending_events() const noexcept {
        return heap_.size() + lane_pending_;
    }
    // Exact number of scheduled-and-not-yet-fired (nor cancelled) events.
    [[nodiscard]] std::size_t live_events() const noexcept { return live_; }
    // Arena footprint, for bounded-memory assertions in tests and benches.
    [[nodiscard]] std::size_t arena_slots() const noexcept { return arena_.size(); }
    [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }
    [[nodiscard]] std::uint64_t cancelled_events() const noexcept { return cancelled_; }

    // Parking space for packets an owner re-emits from a heap event (a
    // probe's trailing packets).
    [[nodiscard]] PacketPool& packet_pool() noexcept { return packets_; }

    // Deep invariant walker (BB_AUDIT tier, DESIGN.md §10): heap order,
    // lane order, ticket/arena cross-referencing, free-list acyclicity and
    // disjointness, generation monotonicity, live/stale accounting.
    // O(arena + heap + lanes); a violation aborts via BB_CHECK in any build.
    // Called automatically at run_until() boundaries in BB_AUDIT=ON builds;
    // cheap enough for tests to call directly after every mutation.
    void check_invariants() const;

private:
#ifdef BB_TESTING
    // Lets contract_test corrupt private state to prove check_invariants()
    // catches real damage, without a public mutation API.
    friend struct SchedulerTestAccess;
#endif
    friend class Lane;
    template <typename Entry>
    friend class RingLane;

    static constexpr std::uint32_t kNoFree = 0xFFFF'FFFFu;

    struct Slot {
        Event fn;
        detail::EventKey due{};  // dispatch key; the heap ticket may lag it
        std::uint32_t gen{0};
        std::uint32_t next_free{kNoFree};
    };
    using Ticket = detail::Ticket;

    EventId schedule_event(TimeNs at, Event ev);
    // Throws std::invalid_argument when `at` is in the past.
    void check_future(TimeNs at) const {
        if (at < now_) [[unlikely]] throw_past();
    }
    [[noreturn]] static void throw_past();
    // Pop a free (or freshly grown) slot off the free list; fn is empty.
    [[nodiscard]] std::uint32_t acquire_raw_slot() {
        if (free_head_ == kNoFree) {
            arena_.emplace_back();
            return static_cast<std::uint32_t>(arena_.size() - 1);
        }
        const std::uint32_t s = free_head_;
        Slot& slot = arena_[s];
        free_head_ = slot.next_free;
        slot.next_free = kNoFree;
        return s;
    }
    // Ticket the filled slot `s` into the ready queue and mint its id.
    EventId commit_slot(TimeNs at, std::uint32_t s) {
        Slot& slot = arena_[s];
        slot.due = {at, seq_++};
        heap_push(Ticket{at, slot.due.seq, s, slot.gen});
        ++live_;
        return (static_cast<EventId>(slot.gen) << 32) | s;
    }
    [[nodiscard]] bool ticket_live(const Ticket& t) const noexcept {
        return arena_[t.slot].gen == t.gen;
    }
    // A live ticket still keyed where its event was before a reschedule().
    [[nodiscard]] bool ticket_lags(const Ticket& t) const noexcept {
        return arena_[t.slot].due.seq != t.seq;
    }
    [[nodiscard]] static bool earlier(const Ticket& a, const Ticket& b) noexcept {
        return detail::earlier({a.at, a.seq}, {b.at, b.seq});
    }
    void heap_push(const Ticket& t);
    void heap_drop_top() noexcept;  // remove heap_[0], restore heap order
    void sift_down(std::size_t i) noexcept;
    void compact_if_mostly_stale();
    void release_slot(std::uint32_t slot) noexcept;
    // Run the arena callable in `slot` after releasing the slot.
    void fire_slot(std::uint32_t slot);

    // Take the insertion sequence for a lane entry at `at`, behind a lane
    // whose newest entry is at `back` (or that is empty, when null).
    std::uint64_t lane_admit(TimeNs at, const TimeNs* back) {
        check_future(at);
        BB_CHECK_MSG(back == nullptr || *back <= at, "scheduler: lane push goes back in time");
        ++live_;
        ++lane_pending_;
        return seq_++;
    }
    // `lane` is going away with `dropped` entries still pending.
    void lane_close(const Lane* lane, std::size_t dropped) noexcept;

    TimeNs now_{TimeNs::zero()};
    std::uint64_t seq_{0};
    std::uint64_t executed_{0};
    std::uint64_t cancelled_{0};
    std::size_t live_{0};
    std::size_t stale_{0};  // cancelled tickets still sitting in the heap
    std::size_t lane_pending_{0};  // entries waiting on lanes
    std::uint32_t free_head_{kNoFree};
    std::vector<Slot> arena_;
    std::vector<Ticket> heap_;
    std::vector<Lane*> lanes_;
    PacketPool packets_;
};

// Ring storage and the scheduler bookkeeping both lane kinds share.
template <typename Entry>
class RingLane : public Lane {
public:
    [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
    // Ring footprint in entries, for bounded-memory assertions.
    [[nodiscard]] std::size_t capacity() const noexcept { return ring_.capacity(); }

protected:
    using Lane::Lane;
    ~RingLane() {
        if (sched_ != nullptr) sched_->lane_close(this, ring_.size());
    }

    void push(Entry e) {
        e.seq = sched_->lane_admit(e.at, ring_.empty() ? nullptr : &ring_.back().at);
        if (ring_.empty()) front_ = {e.at, e.seq};
        ring_.push_back(e);
    }
    [[nodiscard]] Entry pop() noexcept {
        const Entry e = ring_.front();
        ring_.pop_front();
        front_ = ring_.empty() ? detail::kIdle
                               : detail::EventKey{ring_.front().at, ring_.front().seq};
        return e;
    }
    // Order and front-key checks shared by both lane kinds; returns the
    // number of pending entries.
    std::size_t check_order() const {
        for (std::size_t i = 0; i < ring_.size(); ++i) {
            const Entry& e = ring_[i];
            BB_CHECK_MSG(e.seq < sched_->seq_, "scheduler: lane entry sequence from the future");
            if (i == 0) {
                BB_CHECK_MSG(e.at >= sched_->now_, "scheduler: lane entry scheduled in the past");
                BB_CHECK_MSG(e.at == front_.at && e.seq == front_.seq,
                             "scheduler: lane front key out of date");
            } else {
                BB_CHECK_MSG(detail::earlier({ring_[i - 1].at, ring_[i - 1].seq}, {e.at, e.seq}),
                             "scheduler: lane order violated");
            }
        }
        if (ring_.empty()) {
            BB_CHECK_MSG(front_.seq == detail::kIdle.seq, "scheduler: empty lane has a front key");
        }
        return ring_.size();
    }

#ifdef BB_TESTING
    friend struct SchedulerTestAccess;
#endif
    detail::Ring<Entry> ring_;
};

namespace detail {
struct Delivery {
    TimeNs at;
    std::uint64_t seq;
    PacketSink* sink;
    Packet pkt;
};
}  // namespace detail

// Fixed-delay packet deliveries.  Each entry holds its packet inline: no
// arena slot, closure or pool round trip.  The owner must deliver in
// non-decreasing arrival-time order (a fixed delay from the current time
// always does); a delivery that would overtake the lane's newest entry
// aborts.
class PacketLane final : public RingLane<detail::Delivery> {
public:
    explicit PacketLane(Scheduler& sched) : RingLane{sched} {}

    // Deliver a copy of `pkt` to `sink` after `delay`.
    void deliver_after(TimeNs delay, const Packet& pkt, PacketSink& sink) {
        push(detail::Delivery{sched_->now() + delay, 0, &sink, pkt});
    }

private:
    void fire_front() override {
        const detail::Delivery e = pop();
        e.sink->accept(e.pkt);
    }
    std::size_t check_entries() const override;
};

// Occurrences of one recurring event an owner schedules in non-decreasing
// time order.  Entries are bare (time, seq) keys; each one, when due, runs
// the handler the owner installed at construction, so the owner keeps
// whatever state tells occurrences apart (the packet on the wire, the next
// pre-drawn probe slot).
class EventLane final : public RingLane<detail::EventKey> {
public:
    EventLane(Scheduler& sched, Event handler) : RingLane{sched}, handler_{std::move(handler)} {}

    void schedule_at(TimeNs at) { push(detail::EventKey{at, 0}); }
    void schedule_after(TimeNs delay) { schedule_at(sched_->now() + delay); }

private:
    void fire_front() override {
        (void)pop();
        handler_();
    }
    std::size_t check_entries() const override { return check_order(); }

    Event handler_;
};

}  // namespace bb::sim

#endif  // BB_SIM_SCHEDULER_H

#include "sim/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/contract.h"
#include "util/det.h"

namespace bb::sim {

// --- invariants ---------------------------------------------------------
//
// One pass over the heap and every lane plus one walk of the free list;
// `mark` tags each arena slot as live-ticketed (bit 0) or free-listed (bit 1)
// so the two sets are provably disjoint and jointly exhaustive.

void Scheduler::check_invariants() const {
    std::vector<std::uint8_t> mark(arena_.size(), 0);
    std::size_t live_tickets = 0;
    std::size_t stale_tickets = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        const Ticket& t = heap_[i];
        if (i > 0) {
            BB_CHECK_MSG(!earlier(t, heap_[(i - 1) / 4]), "scheduler: 4-ary heap order violated");
        }
        BB_CHECK_MSG(t.slot < arena_.size(), "scheduler: ticket references slot out of bounds");
        BB_CHECK_MSG(t.gen <= arena_[t.slot].gen,
                     "scheduler: ticket generation ahead of its arena slot");
        if (!ticket_live(t)) {
            ++stale_tickets;
            continue;
        }
        ++live_tickets;
        const Slot& slot = arena_[t.slot];
        BB_CHECK_MSG((mark[t.slot] & 1U) == 0, "scheduler: two live tickets share an arena slot");
        mark[t.slot] |= 1U;
        BB_CHECK_MSG(static_cast<bool>(slot.fn),
                     "scheduler: live ticket references an empty arena slot");
        BB_CHECK_MSG(t.at >= now_, "scheduler: live ticket scheduled in the past");
        // A rescheduled event's ticket may lag its due key; one ahead of it
        // would surface after the event was due.
        BB_CHECK_MSG(!detail::earlier(slot.due, {t.at, t.seq}),
                     "scheduler: ticket keyed later than its event's due key");
        BB_CHECK_MSG(slot.due.seq < seq_, "scheduler: due key sequence from the future");
    }
    BB_CHECK_MSG(stale_tickets == stale_, "scheduler: stale-ticket accounting drifted");

    std::size_t lane_entries = 0;
    for (const Lane* lane : lanes_) {
        BB_CHECK_MSG(lane->sched_ == this, "scheduler: registered lane belongs elsewhere");
        lane_entries += lane->check_entries();
    }
    BB_CHECK_MSG(lane_entries == lane_pending_, "scheduler: lane accounting drifted");
    BB_CHECK_MSG(live_tickets + lane_entries == live_, "scheduler: live-event accounting drifted");

    std::size_t free_len = 0;
    for (std::uint32_t s = free_head_; s != kNoFree; s = arena_[s].next_free) {
        BB_CHECK_MSG(s < arena_.size(), "scheduler: free list walked out of bounds");
        BB_CHECK_MSG((mark[s] & 2U) == 0, "scheduler: free list is cyclic");
        BB_CHECK_MSG((mark[s] & 1U) == 0, "scheduler: free slot still has a live ticket");
        BB_CHECK_MSG(!arena_[s].fn, "scheduler: free slot holds an undestroyed callable");
        mark[s] |= 2U;
        ++free_len;
    }
    std::size_t ticketed = 0;
    for (const std::uint8_t m : mark) ticketed += m & 1U;
    BB_CHECK_MSG(free_len + ticketed == arena_.size(),
                 "scheduler: arena slots leaked (neither free nor live)");
    packets_.check_invariants();
}

std::size_t PacketLane::check_entries() const {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        BB_CHECK_MSG(ring_[i].sink != nullptr, "scheduler: packet lane entry has no sink");
    }
    return check_order();
}

// --- arena --------------------------------------------------------------

void Scheduler::release_slot(std::uint32_t s) noexcept {
    Slot& slot = arena_[s];
    slot.fn.reset();
    // A generation wrap would resurrect stale ids; 2^32 recycles of one slot
    // is out of reach for any real run, but the id guarantee rests on it.
    BB_DCHECK_MSG(slot.gen != 0xFFFF'FFFFu, "scheduler: slot generation counter wrapped");
    ++slot.gen;  // invalidates every outstanding id/ticket for this slot
    slot.next_free = free_head_;
    free_head_ = s;
}

// --- 4-ary heap ---------------------------------------------------------
//
// Children of i are 4i+1 .. 4i+4, parent is (i-1)/4.  Min element at the
// root; ordering is earlier() on (time, insertion seq).

void Scheduler::heap_push(const Ticket& t) {
    heap_.push_back(t);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!earlier(heap_[i], heap_[parent])) break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void Scheduler::sift_down(std::size_t i) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) return;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (earlier(heap_[c], heap_[best])) best = c;
        }
        if (!earlier(heap_[best], heap_[i])) return;
        std::swap(heap_[i], heap_[best]);
        i = best;
    }
}

void Scheduler::heap_drop_top() noexcept {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
}

void Scheduler::compact_if_mostly_stale() {
    if (stale_ <= 64 || stale_ * 2 <= heap_.size()) return;
    std::size_t kept = 0;
    for (const Ticket& t : heap_) {
        if (ticket_live(t)) heap_[kept++] = t;
    }
    heap_.resize(kept);
    // Floyd heap construction: sift internal nodes down, leaves are trivial.
    for (std::size_t i = kept / 4 + 1; i-- > 0;) {
        if (i < kept) sift_down(i);
    }
    BB_DCHECK_MSG(kept == live_ - lane_pending_,
                  "scheduler: compaction kept a stale ticket (or dropped a live one)");
    stale_ = 0;
    BB_AUDIT(check_invariants());
}

// --- scheduling ---------------------------------------------------------

void Scheduler::throw_past() {
    throw std::invalid_argument{"Scheduler: event scheduled in the past"};
}

EventId Scheduler::schedule_event(TimeNs at, Event ev) {
    check_future(at);
    const std::uint32_t s = acquire_raw_slot();
    arena_[s].fn = std::move(ev);
    return commit_slot(at, s);
}

void Scheduler::fire_slot(std::uint32_t slot) {
    Event fn = std::move(arena_[slot].fn);
    release_slot(slot);
    fn();
}

void Scheduler::cancel(EventId id) noexcept {
    const auto s = static_cast<std::uint32_t>(id & 0xFFFF'FFFFu);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (s >= arena_.size() || arena_[s].gen != gen) return;  // fired/cancelled/unknown
    BB_DCHECK_MSG(live_ > 0, "scheduler: cancel with no live events");
    release_slot(s);
    --live_;
    ++cancelled_;
    ++stale_;
    compact_if_mostly_stale();
    BB_AUDIT(check_invariants());
}

EventId Scheduler::reschedule(EventId id, TimeNs at) {
    check_future(at);
    const auto s = static_cast<std::uint32_t>(id & 0xFFFF'FFFFu);
    BB_CHECK_MSG(s < arena_.size() && arena_[s].gen == static_cast<std::uint32_t>(id >> 32),
                 "scheduler: reschedule of an event that is not pending");
    Slot& slot = arena_[s];
    if (at < slot.due.at) {
        // The ticket would surface too late; re-ticket the callable.
        Event fn = std::move(slot.fn);
        cancel(id);
        return schedule_event(at, std::move(fn));
    }
    slot.due = {at, seq_++};
    BB_AUDIT(check_invariants());
    return id;
}

// --- lanes --------------------------------------------------------------

Lane::Lane(Scheduler& sched) : sched_{&sched} { sched.lanes_.push_back(this); }

Scheduler::~Scheduler() {
    for (Lane* lane : lanes_) lane->sched_ = nullptr;
}

void Scheduler::lane_close(const Lane* lane, std::size_t dropped) noexcept {
    live_ -= dropped;
    lane_pending_ -= dropped;
    lanes_.erase(std::find(lanes_.begin(), lanes_.end(), lane));
}

void Scheduler::reserve(std::size_t events) {
    arena_.reserve(events);
    heap_.reserve(events);
    packets_.reserve(events);
}

void Scheduler::run_until(TimeNs t_end) {
    // Telemetry only — dispatch tallies never reach results or the hash chain.
    static obs::Counter& dispatched = obs::counter("sim.scheduler.events_dispatched");  // bb-det: allow(no-mutable-static)
    static obs::Gauge& depth = obs::gauge("sim.scheduler.queue_depth");
    BB_AUDIT(check_invariants());
    std::uint64_t ran = 0;
    for (;;) {
        // Cancelled heap tops are discarded and rescheduled ones re-keyed to
        // their due key, without touching the clock: neither is a dispatch.
        while (!heap_.empty()) {
            Ticket& top = heap_.front();
            if (!ticket_live(top)) {
                heap_drop_top();
                BB_DCHECK_MSG(stale_ > 0, "scheduler: stale-ticket accounting underflow");
                --stale_;
            } else if (ticket_lags(top)) {
                const detail::EventKey due = arena_[top.slot].due;
                top.at = due.at;
                top.seq = due.seq;
                sift_down(0);
            } else {
                break;
            }
        }
        // The next event is the (time, seq) minimum over the heap top and
        // every lane front; each lane's front is its own minimum.
        detail::EventKey next =
            heap_.empty() ? detail::kIdle : detail::EventKey{heap_.front().at, heap_.front().seq};
        Lane* from = nullptr;
        for (Lane* lane : lanes_) {
            if (detail::earlier(lane->front_, next)) {
                next = lane->front_;
                from = lane;
            }
        }
        if (from == nullptr && heap_.empty()) break;
        if (next.at > t_end) break;
        BB_DCHECK_MSG(next.at >= now_, "scheduler: simulated time would run backwards");
        now_ = next.at;
        det::fold(det::Site::event, next.at.ns(), next.seq);
        std::uint32_t slot = 0;
        if (from != nullptr) {
            --lane_pending_;
        } else {
            slot = heap_.front().slot;
            heap_drop_top();
        }
        --live_;
        ++executed_;
        ++ran;
        if ((ran & 1023U) == 0 && obs::enabled()) {
            depth.set(static_cast<double>(pending_events()));
        }
        if (from != nullptr) {
            from->fire_front();
        } else {
            fire_slot(slot);
        }
    }
    if (ran != 0) {
        dispatched.inc(ran);
        depth.set(static_cast<double>(pending_events()));
    }
    if (t_end != TimeNs::max() && t_end > now_) now_ = t_end;
    BB_AUDIT(check_invariants());
}

}  // namespace bb::sim

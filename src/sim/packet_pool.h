// Free-list arena for packets parked behind a scheduler event.
//
// A Packet is a 72-byte value; capturing one by value in a scheduler closure
// blows past the inline event buffer and forces a heap allocation per event.
// Parking the packet here instead lets the closure carry a 32-bit handle, so
// the event stays inline (a probe's trailing packets use this; fixed-delay
// deliveries ride a PacketLane instead).  Each Scheduler (one per replica —
// replicas never share simulation state) owns one pool, so no
// synchronization is needed and slots are recycled for the lifetime of the
// run: the steady state performs zero allocations.
#ifndef BB_SIM_PACKET_POOL_H
#define BB_SIM_PACKET_POOL_H

#include <cstdint>
#include <vector>

#include "sim/packet.h"
#include "util/contract.h"

namespace bb::sim {

class PacketPool {
public:
    using Handle = std::uint32_t;

    // Park a copy of `pkt`; the slot stays owned by the pool until take().
    [[nodiscard]] Handle put(const Packet& pkt) {
        if (free_.empty()) {
            slots_.push_back(pkt);
            // Keep the free list's capacity in step with the slot count so
            // take() never allocates.
            free_.reserve(slots_.capacity());
            return static_cast<Handle>(slots_.size() - 1);
        }
        const Handle h = free_.back();
        free_.pop_back();
        slots_[h] = pkt;
        return h;
    }

    // Retrieve the parked packet and recycle its slot.  Each handle must be
    // taken exactly once.  A wild or double-taken handle would hand a stale
    // packet to a sink and silently corrupt loss accounting, so the bounds
    // check stays on in every build (one predictable branch per delivery).
    [[nodiscard]] Packet take(Handle h) noexcept {
        BB_CHECK_MSG(h < slots_.size(), "packet pool: handle out of bounds");
        BB_DCHECK_MSG(in_use() > 0, "packet pool: take() with no parked packets");
        free_.push_back(h);
        return slots_[h];
    }

    void reserve(std::size_t n) {
        slots_.reserve(n);
        free_.reserve(n);
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
    [[nodiscard]] std::size_t in_use() const noexcept { return slots_.size() - free_.size(); }

    // Deep walker (BB_AUDIT tier): the free list must be in bounds and
    // duplicate-free — a duplicated handle is exactly the double-take bug the
    // generation-less 32-bit handles cannot catch locally.
    void check_invariants() const {
        BB_CHECK_MSG(free_.size() <= slots_.size(), "packet pool: more free handles than slots");
        std::vector<std::uint8_t> seen(slots_.size(), 0);
        for (const Handle h : free_) {
            BB_CHECK_MSG(h < slots_.size(), "packet pool: free handle out of bounds");
            BB_CHECK_MSG(seen[h] == 0, "packet pool: handle freed twice (double take)");
            seen[h] = 1;
        }
    }

private:
    std::vector<Packet> slots_;
    std::vector<Handle> free_;
};

}  // namespace bb::sim

#endif  // BB_SIM_PACKET_POOL_H

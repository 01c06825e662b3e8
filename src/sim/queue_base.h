// Common machinery for queues feeding a serial output link: FIFO buffering,
// transmission serialization, propagation, byte accounting and trace hooks.
// Concrete disciplines (drop-tail, RED, PIE, CoDel) decide admission at the
// tail and, for sojourn-time AQMs, drop/mark at the head; ECN-capable
// packets can be CE-marked instead of dropped.
#ifndef BB_SIM_QUEUE_BASE_H
#define BB_SIM_QUEUE_BASE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/func.h"
#include "util/time.h"

namespace bb::sim {

// Which discipline guards the output link.  Selected through
// LinkConfig::discipline and realized by the make_queue() factory, so
// scenario code never names a concrete queue class.
enum class QueueDiscipline : std::uint8_t { drop_tail, red, pie, codel };

// Random Early Detection parameters (Floyd/Jacobson 1993).
struct RedParams {
    double min_threshold{0.25};  // of capacity_bytes
    double max_threshold{0.75};  // of capacity_bytes
    double max_drop_probability{0.10};
    double weight{0.002};  // EWMA weight w_q
    // Mark ECN-capable packets instead of early-dropping them (forced drops
    // above max_threshold and physical-buffer overflows still drop).
    bool ecn{false};
};

// PIE parameters (RFC 8033, simplified: no departure-rate estimator — the
// simulated link rate is known exactly, so queueing delay is closed-form).
struct PieParams {
    TimeNs target_delay{milliseconds(15)};
    TimeNs update_interval{milliseconds(15)};
    double alpha{0.125};  // gain on (qdelay - target), per RFC 8033 §4.2
    double beta{1.25};    // gain on (qdelay - qdelay_old)
    TimeNs burst_allowance{milliseconds(150)};
    bool ecn{false};
    // CE-mark instead of drop only while drop_prob is below this ceiling
    // (RFC 8033 §5.1 safeguard: heavy overload must shed load, not marks).
    double ecn_mark_ceiling{0.10};
};

// CoDel parameters (Nichols/Jacobson, ACM Queue 2012).
struct CoDelParams {
    TimeNs target{milliseconds(5)};     // acceptable standing sojourn time
    TimeNs interval{milliseconds(100)}; // sliding window for the target test
    bool ecn{false};
};

// Statistics exported by queue trace hooks.  `pkt` refers into the queue
// and is valid only while the hook runs.
struct QueueEvent {
    const Packet& pkt;
    TimeNs at;
    // When the packet entered the buffer.  For a departure, `at -
    // enqueued_at` is its sojourn plus transmission time; for tail-side
    // events (enqueue, tail drop, tail mark) it equals `at`.
    TimeNs enqueued_at;
    std::int64_t queue_bytes_after;  // occupancy after this event was applied
};

class QueueBase : public PacketSink {
public:
    struct LinkConfig {
        std::int64_t rate_bps{155'000'000};
        TimeNs prop_delay{milliseconds(50)};
        std::int64_t capacity_bytes{0};          // 0 => derive from capacity_time
        TimeNs capacity_time{milliseconds(100)};  // buffer depth in time at rate
        // Discipline selection for the make_queue() factory; the per-class
        // constructors ignore these fields.
        QueueDiscipline discipline{QueueDiscipline::drop_tail};
        RedParams red{};
        PieParams pie{};
        CoDelParams codel{};
        std::uint64_t seed{1};  // for randomized disciplines (RED, PIE)
    };

    QueueBase(Scheduler& sched, const LinkConfig& cfg, PacketSink& downstream);

    void accept(const Packet& pkt) final;

    // --- observability ------------------------------------------------------
    [[nodiscard]] std::int64_t queue_bytes() const noexcept { return queued_bytes_; }
    [[nodiscard]] std::size_t queue_packets() const noexcept { return fifo_.size(); }
    [[nodiscard]] std::int64_t capacity_bytes() const noexcept { return capacity_bytes_; }
    [[nodiscard]] std::int64_t rate_bps() const noexcept { return cfg_.rate_bps; }
    // Queueing delay a newly arriving packet would experience right now.
    [[nodiscard]] TimeNs queueing_delay() const noexcept {
        return transmission_time(queued_bytes_ + in_flight_bytes_, cfg_.rate_bps);
    }
    [[nodiscard]] TimeNs max_queueing_delay() const noexcept {
        return transmission_time(capacity_bytes_, cfg_.rate_bps);
    }

    // High-water mark of buffered bytes over the queue's lifetime.
    [[nodiscard]] std::int64_t max_queue_bytes() const noexcept { return max_queued_bytes_; }
    // The discipline guarding this queue.  Correct for every construction
    // path: concrete constructors stamp their own discipline over whatever
    // the caller's LinkConfig said (per-discipline obs counters key on it).
    [[nodiscard]] QueueDiscipline discipline() const noexcept { return cfg_.discipline; }

    [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }
    [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
    [[nodiscard]] std::uint64_t departures() const noexcept { return departures_; }
    [[nodiscard]] std::int64_t departed_bytes() const noexcept { return departed_bytes_; }
    // CE marks applied in lieu of drops (tail or head side).
    [[nodiscard]] std::uint64_t marks() const noexcept { return marks_; }
    // Head-side drops (CoDel); also included in drops().
    [[nodiscard]] std::uint64_t head_drops() const noexcept { return head_drops_; }

    // Trace hooks (ground-truth instrumentation; the simulated DAG cards).
    // Move-only UniqueFunction keeps std::function out of the sim hot path
    // (lint rule no-std-function): small captures stay inline and firing a
    // hook is one indirect call, no virtual dispatch.
    using Hook = UniqueFunction<void(const QueueEvent&)>;
    void on_enqueue(Hook h) { enqueue_hooks_.push_back(std::move(h)); }
    void on_drop(Hook h) { drop_hooks_.push_back(std::move(h)); }
    void on_dequeue(Hook h) { dequeue_hooks_.push_back(std::move(h)); }
    // Fires once per CE mark, at the instant the mark is applied.
    void on_mark(Hook h) { mark_hooks_.push_back(std::move(h)); }

protected:
    // Policy verdicts.  `mark` requests a CE mark: the base applies it to
    // ECN-capable packets and degrades it to `drop` for everything else
    // (standard AQM behaviour — a non-ECT packet cannot carry the signal).
    enum class Verdict : std::uint8_t { accept, drop, mark };

    // Admission policy, consulted at the tail for every arrival.  Called
    // with the buffer state visible through the accessors above; a policy
    // must also respect the physical buffer (the base enforces it
    // regardless).
    [[nodiscard]] virtual Verdict admit(const Packet& pkt) = 0;

    // Head policy, consulted just before each transmission with the head
    // packet and the time it spent queued (its sojourn so far).  `drop`
    // discards the head and the base consults again for the next one;
    // `mark` CE-marks the head and transmits it.  Default: plain FIFO.
    [[nodiscard]] virtual Verdict head_action(const Packet& pkt, TimeNs sojourn) {
        (void)pkt;
        (void)sojourn;
        return Verdict::accept;
    }

    [[nodiscard]] Scheduler& sched() noexcept { return *sched_; }
    [[nodiscard]] const Scheduler& sched() const noexcept { return *sched_; }
    // Concrete constructors call this so discipline() (and the
    // sim.queue.<disc>.* counters) stay truthful even when a queue class is
    // constructed directly with a default LinkConfig rather than through
    // make_queue().
    void set_discipline(QueueDiscipline d) noexcept { cfg_.discipline = d; }
    // True when buffering `pkt` would exceed the physical capacity.
    [[nodiscard]] bool buffer_overflows(const Packet& pkt) const noexcept {
        return queued_bytes_ + pkt.size_bytes > capacity_bytes_;
    }

private:
    struct Queued {
        Packet pkt;
        TimeNs enqueued_at;
    };

    // `enqueued_at` is now() for tail-side drops and marks.
    void drop_packet(const Packet& pkt, TimeNs enqueued_at, bool at_head);
    void apply_mark(Packet& pkt, TimeNs enqueued_at);
    void start_transmission();
    void finish_transmission();

    Scheduler* sched_;
    EventLane tx_lane_;     // the one pending transmission completion
    PacketLane prop_lane_;  // propagation to the downstream sink
    LinkConfig cfg_;
    std::int64_t capacity_bytes_;
    PacketSink* downstream_;

    detail::Ring<Queued> fifo_;  // buffered packets, head first
    std::int64_t queued_bytes_{0};
    std::int64_t max_queued_bytes_{0};
    std::int64_t in_flight_bytes_{0};
    Queued in_flight_{};  // on the wire while transmitting_
    bool transmitting_{false};

    std::uint64_t arrivals_{0};
    std::uint64_t drops_{0};
    std::uint64_t departures_{0};
    std::int64_t departed_bytes_{0};
    std::uint64_t marks_{0};
    std::uint64_t head_drops_{0};

    std::vector<Hook> enqueue_hooks_;
    std::vector<Hook> drop_hooks_;
    std::vector<Hook> dequeue_hooks_;
    std::vector<Hook> mark_hooks_;
};

// Construct the discipline selected by `cfg.discipline` (randomized
// disciplines derive their Rng from `cfg.seed`).  The factory is the one
// switch over QueueDiscipline in the tree; everything downstream programs
// against QueueBase.
[[nodiscard]] std::unique_ptr<QueueBase> make_queue(Scheduler& sched,
                                                    const QueueBase::LinkConfig& cfg,
                                                    PacketSink& downstream);

}  // namespace bb::sim

#endif  // BB_SIM_QUEUE_BASE_H

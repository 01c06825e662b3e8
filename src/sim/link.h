// Links: propagation-delay pipes and the queue disciplines on the
// congested output link (drop-tail as in the paper's GSR, plus RED for the
// AQM extension experiments).
#ifndef BB_SIM_LINK_H
#define BB_SIM_LINK_H

#include <cstdint>

#include "sim/packet.h"
#include "sim/queue_base.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/time.h"

namespace bb::sim {

// Pure propagation-delay link: packets arrive at the downstream sink after a
// fixed delay, with no serialization or loss.  Models fast access links and
// the reverse (ACK) path of the dumbbell, which never congest in the
// paper's testbed.
class DelayLink final : public PacketSink {
public:
    DelayLink(Scheduler& sched, TimeNs delay, PacketSink& downstream)
        : lane_{sched}, delay_{delay}, downstream_{&downstream} {}

    void accept(const Packet& pkt) override {
        // A fixed delay keeps arrivals in send order, so they ride a lane.
        lane_.deliver_after(delay_, pkt, *downstream_);
    }

    [[nodiscard]] TimeNs delay() const noexcept { return delay_; }

private:
    PacketLane lane_;
    TimeNs delay_;
    PacketSink* downstream_;
};

// Drop-tail FIFO queue feeding a serial output link — the congested hop C of
// the paper's testbed (Figure 1: buffer of Q bytes in front of an output
// link of bandwidth B_out).  A packet is dropped iff buffering it would
// exceed `capacity_bytes`.
class BottleneckQueue final : public QueueBase {
public:
    using Config = LinkConfig;

    BottleneckQueue(Scheduler& sched, const Config& cfg, PacketSink& downstream)
        : QueueBase{sched, cfg, downstream} {
        set_discipline(QueueDiscipline::drop_tail);
    }

protected:
    Verdict admit(const Packet&) override {
        return Verdict::accept;  // the base's physical-buffer check is the only rule
    }
};

// Random Early Detection (Floyd/Jacobson 1993) queue, for studying the probe
// process against an AQM bottleneck where loss episodes have soft edges
// (paper §7 raises exactly this "more complex environments" question).
class RedQueue final : public QueueBase {
public:
    // Parameters live at namespace scope (queue_base.h) so LinkConfig can
    // embed them; the nested alias keeps existing call sites compiling.
    using RedParams = bb::sim::RedParams;

    RedQueue(Scheduler& sched, const LinkConfig& cfg, const RedParams& params,
             PacketSink& downstream, Rng rng);

    [[nodiscard]] double average_queue_bytes() const noexcept { return avg_; }
    [[nodiscard]] std::uint64_t early_drops() const noexcept { return early_drops_; }
    [[nodiscard]] std::uint64_t forced_drops() const noexcept { return forced_drops_; }
    // Early "drops" converted to CE marks (params.ecn); also counted in the
    // base's marks().
    [[nodiscard]] std::uint64_t early_marks() const noexcept { return early_marks_; }

protected:
    Verdict admit(const Packet& pkt) override;

private:
    void update_average();

    RedParams params_;
    double avg_{0.0};
    std::int64_t count_since_drop_{-1};
    TimeNs idle_since_{TimeNs::zero()};
    bool was_idle_{true};
    std::uint64_t early_drops_{0};
    std::uint64_t forced_drops_{0};
    std::uint64_t early_marks_{0};
    Rng rng_;  // last, see util/rng.h
};

}  // namespace bb::sim

#endif  // BB_SIM_LINK_H

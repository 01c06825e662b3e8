// Latency-targeting AQM disciplines for the bottleneck link: PIE (RFC 8033)
// and CoDel (Nichols/Jacobson 2012).  Both control queueing DELAY rather than
// occupancy, which gives loss episodes very different temporal structure from
// drop-tail/RED — exactly the "more complex environments" question the
// paper's §7 leaves open for the probe process.
#ifndef BB_SIM_AQM_H
#define BB_SIM_AQM_H

#include <cstdint>

#include "sim/queue_base.h"
#include "util/rng.h"
#include "util/time.h"

namespace bb::sim {

// Proportional Integral controller Enhanced (RFC 8033, simplified: the
// simulated link rate is exact, so queueing delay is closed-form and no
// departure-rate estimator is needed).  Tail-drops probabilistically, with
// the probability servoed toward a target queueing delay by a periodic
// update; optionally CE-marks instead while the probability is moderate.
class PieQueue final : public QueueBase {
public:
    using Params = PieParams;

    PieQueue(Scheduler& sched, const LinkConfig& cfg, const PieParams& params,
             PacketSink& downstream, Rng rng);

    [[nodiscard]] double drop_probability() const noexcept { return drop_prob_; }
    // The periodic controller only runs while active; it deactivates when the
    // queue drains and the probability decays, so run-until-empty terminates.
    [[nodiscard]] bool active() const noexcept { return active_; }
    [[nodiscard]] std::uint64_t early_drops() const noexcept { return early_drops_; }
    [[nodiscard]] std::uint64_t early_marks() const noexcept { return early_marks_; }
    [[nodiscard]] std::uint64_t updates() const noexcept { return updates_; }

protected:
    Verdict admit(const Packet& pkt) override;

private:
    void update_probability();

    PieParams params_;
    double drop_prob_{0.0};
    TimeNs qdelay_old_{TimeNs::zero()};
    TimeNs burst_left_{TimeNs::zero()};
    bool active_{false};
    std::uint64_t early_drops_{0};
    std::uint64_t early_marks_{0};
    std::uint64_t updates_{0};
    Rng rng_;  // last, see util/rng.h
};

// Controlled Delay.  No tail policy beyond the physical buffer; at the head
// it drops (or CE-marks) packets whose sojourn time has stayed above
// `target` for a full `interval`, then again on the deterministic
// interval/sqrt(count) schedule until the standing queue dissolves.
// Entirely deterministic: consumes no randomness.
class CoDelQueue final : public QueueBase {
public:
    using Params = CoDelParams;

    CoDelQueue(Scheduler& sched, const LinkConfig& cfg, const CoDelParams& params,
               PacketSink& downstream);

    [[nodiscard]] bool dropping() const noexcept { return dropping_; }
    [[nodiscard]] std::uint32_t drop_count() const noexcept { return count_; }
    // Next scheduled drop time while in the dropping state.
    [[nodiscard]] TimeNs drop_next() const noexcept { return drop_next_; }

protected:
    Verdict admit(const Packet& pkt) override;
    Verdict head_action(const Packet& pkt, TimeNs sojourn) override;

private:
    [[nodiscard]] TimeNs control_law(TimeNs t) const noexcept;

    CoDelParams params_;
    TimeNs first_above_time_{TimeNs::zero()};
    TimeNs drop_next_{TimeNs::zero()};
    std::uint32_t count_{0};
    std::uint32_t lastcount_{0};
    bool dropping_{false};
};

}  // namespace bb::sim

#endif  // BB_SIM_AQM_H

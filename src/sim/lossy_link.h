// Gilbert–Elliott lossy link: a two-state (good/bad) on/off loss process
// layered on a propagation-delay pipe.  Models loss that is NOT caused by
// queue congestion — wireless fades, line-card faults — so experiments can
// separate what an estimator attributes to congestion episodes from loss the
// bottleneck queue never saw.
#ifndef BB_SIM_LOSSY_LINK_H
#define BB_SIM_LOSSY_LINK_H

#include <cstdint>
#include <vector>

#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/func.h"
#include "util/rng.h"
#include "util/time.h"

namespace bb::sim {

// Continuous-time Gilbert–Elliott chain: the link alternates between a good
// and a bad state with exponentially distributed sojourns; each packet is
// dropped with the per-state loss probability in force at its arrival
// instant.  The chain is advanced lazily (only when a packet arrives), so an
// idle link costs no events.
//
// Stationary loss rate (the property tests pin this against long-run
// counts):  pi_bad = mean_bad / (mean_good + mean_bad),
//           E[loss] = pi_good * p_good_loss + pi_bad * p_bad_loss.
class GilbertElliottLink final : public PacketSink {
public:
    struct Config {
        double p_good_loss{0.0};             // per-packet loss prob in GOOD
        double p_bad_loss{0.5};              // per-packet loss prob in BAD
        TimeNs mean_good{seconds_i(10)};     // mean sojourn in GOOD
        TimeNs mean_bad{milliseconds(100)};  // mean sojourn in BAD
        TimeNs extra_delay{TimeNs::zero()};  // propagation added by this link
    };

    GilbertElliottLink(Scheduler& sched, const Config& cfg, PacketSink& downstream, Rng rng);

    void accept(const Packet& pkt) override;

    [[nodiscard]] bool in_bad_state() const noexcept { return bad_; }
    [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }
    [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
    [[nodiscard]] std::uint64_t state_flips() const noexcept { return flips_; }
    // Long-run loss fraction the chain parameters imply (not the realized one).
    [[nodiscard]] double stationary_loss_rate() const noexcept;

    // Fires for every packet the link eats, with the drop instant; feeds the
    // ground-truth loss monitor so GE loss counts against truth F/D too.
    using DropHook = UniqueFunction<void(const Packet&, TimeNs)>;
    void on_drop(DropHook h) { drop_hooks_.push_back(std::move(h)); }

private:
    void advance_chain(TimeNs now);
    [[nodiscard]] TimeNs draw_sojourn(bool bad);

    Scheduler* sched_;
    PacketLane lane_;  // the extra_delay hop
    Config cfg_;
    PacketSink* downstream_;
    bool bad_{false};
    TimeNs state_until_{TimeNs::zero()};  // current state holds until here
    std::uint64_t arrivals_{0};
    std::uint64_t drops_{0};
    std::uint64_t flips_{0};
    std::vector<DropHook> drop_hooks_;
    Rng rng_;  // last, see util/rng.h
};

}  // namespace bb::sim

#endif  // BB_SIM_LOSSY_LINK_H

#include "sim/lossy_link.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace bb::sim {

namespace {
obs::Counter& ge_drops_ctr() {
    // bb-det: allow(no-mutable-static) — obs registry cache, telemetry only
    static obs::Counter& c = obs::counter("sim.ge.drops");
    return c;
}
}  // namespace

GilbertElliottLink::GilbertElliottLink(Scheduler& sched, const Config& cfg,
                                       PacketSink& downstream, Rng rng)
    : sched_{&sched}, lane_{sched}, cfg_{cfg}, downstream_{&downstream}, rng_{std::move(rng)} {
    if (cfg_.mean_good <= TimeNs::zero() || cfg_.mean_bad <= TimeNs::zero()) {
        throw std::invalid_argument{"GilbertElliottLink: state sojourns must be > 0"};
    }
    if (cfg_.p_good_loss < 0.0 || cfg_.p_good_loss > 1.0 || cfg_.p_bad_loss < 0.0 ||
        cfg_.p_bad_loss > 1.0) {
        throw std::invalid_argument{"GilbertElliottLink: loss probabilities must be in [0,1]"};
    }
    // The chain starts in GOOD with a fresh sojourn drawn at t=0.
    state_until_ = draw_sojourn(/*bad=*/false);
}

TimeNs GilbertElliottLink::draw_sojourn(bool bad) {
    return rng_.exponential(bad ? cfg_.mean_bad : cfg_.mean_good);
}

void GilbertElliottLink::advance_chain(TimeNs now) {
    // Lazily replay every state flip that happened while no packet was
    // looking.  Sojourns are exponential, so skipping ahead this way samples
    // the same process a per-flip event would.
    while (state_until_ <= now) {
        bad_ = !bad_;
        ++flips_;
        state_until_ += draw_sojourn(bad_);
    }
}

void GilbertElliottLink::accept(const Packet& pkt) {
    ++arrivals_;
    advance_chain(sched_->now());
    const double p_loss = bad_ ? cfg_.p_bad_loss : cfg_.p_good_loss;
    if (p_loss > 0.0 && rng_.bernoulli(p_loss)) {
        ++drops_;
        ge_drops_ctr().inc();
        const TimeNs at = sched_->now();
        for (auto& h : drop_hooks_) h(pkt, at);
        return;
    }
    if (cfg_.extra_delay > TimeNs::zero()) {
        lane_.deliver_after(cfg_.extra_delay, pkt, *downstream_);
    } else {
        downstream_->accept(pkt);
    }
}

double GilbertElliottLink::stationary_loss_rate() const noexcept {
    const double g = cfg_.mean_good.to_seconds();
    const double b = cfg_.mean_bad.to_seconds();
    const double pi_bad = b / (g + b);
    return (1.0 - pi_bad) * cfg_.p_good_loss + pi_bad * cfg_.p_bad_loss;
}

}  // namespace bb::sim

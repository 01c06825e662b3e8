#include "core/probe_process.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/contract.h"

namespace bb::core {

namespace {
void validate(const ProbeProcessConfig& cfg) {
    // Written so that a NaN fails: every comparison with NaN is false.
    if (!(cfg.p > 0.0 && cfg.p <= 1.0)) {
        throw std::invalid_argument{"probe process: p must be in (0, 1]"};
    }
    if (!(cfg.extended_fraction >= 0.0 && cfg.extended_fraction <= 1.0)) {
        throw std::invalid_argument{"probe process: extended_fraction must be in [0, 1]"};
    }
}

// Room for a Binomial(total_slots, fraction) count: its mean plus four
// standard deviations, so the vector almost never regrows, capped at one
// per slot.
std::size_t expected_capacity(double fraction, SlotIndex total_slots) {
    const double n = static_cast<double>(total_slots);
    const double mean = n * std::min(fraction, 1.0);
    const double room = mean + 4.0 * std::sqrt(mean) + 8.0;
    return static_cast<std::size_t>(std::min(room, n));
}
}  // namespace

ProbeDesign design_probe_process(Rng& rng, SlotIndex total_slots,
                                 const ProbeProcessConfig& cfg) {
    validate(cfg);
    const StartThresholds draw{cfg};

    ProbeDesign design;
    if (total_slots <= 0) return design;
    design.experiments.reserve(expected_capacity(cfg.p, total_slots));
    design.probe_slots.reserve(
        expected_capacity(expected_probe_slot_fraction(cfg), total_slots));
    // Starts only increase and each experiment covers a contiguous run of
    // slots, so every slot before `covered` that an experiment needs is
    // already listed: append only what follows it.
    SlotIndex covered = 0;
    for (SlotIndex i = 0; i < total_slots; ++i) {
        const std::optional<ExperimentKind> kind = draw_experiment_start(rng, draw);
        if (!kind) continue;
        const Experiment e{i, *kind};
        const SlotIndex end = i + e.probes();
        // Keep every experiment fully inside the measurement window.
        if (end > total_slots) continue;
        design.experiments.push_back(e);
        for (SlotIndex s = std::max(i, covered); s < end; ++s) design.probe_slots.push_back(s);
        covered = end;
    }
    return design;
}

StreamingExperimentScorer::StreamingExperimentScorer(Rng rng, const ProbeProcessConfig& cfg,
                                                     ReportSink& sink)
    : draw_{cfg}, sink_{&sink}, rng_{std::move(rng)} {
    validate(cfg);
}

void StreamingExperimentScorer::step(bool congested) {
    // Same per-slot draw as design_probe_process.
    const std::optional<ExperimentKind> kind = draw_experiment_start(rng_, draw_);
    const unsigned started = !kind ? kNone : (*kind == ExperimentKind::basic ? kBasic : kExtended);
    starts_ = static_cast<std::uint8_t>(((starts_ << 2) | started) & 0x3F);
    marks_ = static_cast<std::uint8_t>(((marks_ << 1) | (congested ? 1U : 0U)) & 0x7);
    started_ += started != kNone ? 1 : 0;

    // This slot completes the extended experiment started two slots ago and
    // the basic one started one slot ago; emitting them in that order keeps
    // the batch scorer's start order.
    if ((starts_ >> 4) == kExtended) {
        sink_->consume({ExperimentKind::extended, marks_});
        ++completed_;
    }
    if (((starts_ >> 2) & 0x3) == kBasic) {
        sink_->consume({ExperimentKind::basic, static_cast<std::uint8_t>(marks_ & 0x3)});
        ++completed_;
    }
    ++slot_;
    BB_DCHECK_MSG(completed_ + static_cast<std::uint64_t>(experiments_pending()) == started_,
                  "streaming scorer: started/completed/pending accounting drifted");
}

double expected_probe_slot_fraction(const ProbeProcessConfig& cfg) noexcept {
    const double mean_probes =
        cfg.improved ? (2.0 * (1.0 - cfg.extended_fraction) + 3.0 * cfg.extended_fraction)
                     : 2.0;
    return cfg.p * mean_probes;
}

}  // namespace bb::core

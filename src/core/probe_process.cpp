#include "core/probe_process.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/contract.h"

namespace bb::core {

namespace {
void validate(const ProbeProcessConfig& cfg) {
    if (cfg.p <= 0.0 || cfg.p > 1.0) {
        throw std::invalid_argument{"probe process: p must be in (0, 1]"};
    }
    if (cfg.extended_fraction < 0.0 || cfg.extended_fraction > 1.0) {
        throw std::invalid_argument{"probe process: extended_fraction must be in [0, 1]"};
    }
}
}  // namespace

ProbeDesign design_probe_process(Rng& rng, SlotIndex total_slots,
                                 const ProbeProcessConfig& cfg) {
    validate(cfg);

    ProbeDesign design;
    for (SlotIndex i = 0; i < total_slots; ++i) {
        const std::optional<ExperimentKind> kind = draw_experiment_start(rng, cfg);
        if (!kind) continue;
        const Experiment e{i, *kind};
        const SlotIndex end = i + e.probes();
        // Keep every experiment fully inside the measurement window.
        if (end > total_slots) continue;
        design.experiments.push_back(e);
        // Starts only increase and each experiment covers a contiguous run
        // of slots, so [i, back()] is already present: append what follows.
        SlotIndex s = design.probe_slots.empty() ? i : std::max(i, design.probe_slots.back() + 1);
        for (; s < end; ++s) design.probe_slots.push_back(s);
    }
    return design;
}

StreamingExperimentScorer::StreamingExperimentScorer(Rng rng, const ProbeProcessConfig& cfg,
                                                     ReportSink& sink)
    : cfg_{cfg}, sink_{&sink}, rng_{std::move(rng)} {
    validate(cfg_);
}

void StreamingExperimentScorer::step(bool congested) {
    // Same per-slot draw as design_probe_process.
    const std::optional<ExperimentKind> kind = draw_experiment_start(rng_, cfg_);
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

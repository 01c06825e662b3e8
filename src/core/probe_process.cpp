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
        // Keep every experiment fully inside the measurement window.
        if (i + e.probes() > total_slots) continue;
        design.experiments.push_back(e);
        for (int k = 0; k < e.probes(); ++k) design.probe_slots.push_back(i + k);
    }
    std::sort(design.probe_slots.begin(), design.probe_slots.end());
    design.probe_slots.erase(
        std::unique(design.probe_slots.begin(), design.probe_slots.end()),
        design.probe_slots.end());
    return design;
}

StreamingExperimentScorer::StreamingExperimentScorer(Rng rng, const ProbeProcessConfig& cfg,
                                                     ReportSink& sink)
    : rng_{std::move(rng)}, cfg_{cfg}, sink_{&sink} {
    validate(cfg_);
}

void StreamingExperimentScorer::step(bool congested) {
    // Same per-slot draw as design_probe_process.
    if (const std::optional<ExperimentKind> kind = draw_experiment_start(rng_, cfg_)) {
        // At most one experiment starts per slot and the longest spans three
        // slots, so the fixed 3-entry buffer can never overflow — unless the
        // completion logic below regresses.
        BB_CHECK_MSG(static_cast<std::size_t>(pending_count_) < pending_.size(),
                     "streaming scorer: pending-experiment buffer overflow");
        pending_[static_cast<std::size_t>(pending_count_++)] = Pending{slot_, *kind, 0, 0};
        ++started_;
    }

    // Fold this slot's state into every pending experiment; emit the ones it
    // completes.  Pending entries are in start order, so completions (which
    // can only come from the oldest entries) are emitted in start order too,
    // matching the batch scorer.
    int kept = 0;
    for (int i = 0; i < pending_count_; ++i) {
        Pending& p = pending_[static_cast<std::size_t>(i)];
        p.code = static_cast<std::uint8_t>((p.code << 1) | (congested ? 1 : 0));
        ++p.digits;
        const int span = p.kind == ExperimentKind::basic ? 2 : 3;
        if (p.digits == span) {
            sink_->consume({p.kind, p.code});
            ++completed_;
        } else {
            pending_[static_cast<std::size_t>(kept++)] = p;
        }
    }
    pending_count_ = kept;
    ++slot_;
    BB_DCHECK_MSG(completed_ + static_cast<std::uint64_t>(pending_count_) == started_,
                  "streaming scorer: started/completed/pending accounting drifted");
}

double expected_probe_slot_fraction(const ProbeProcessConfig& cfg) noexcept {
    const double mean_probes =
        cfg.improved ? (2.0 * (1.0 - cfg.extended_fraction) + 3.0 * cfg.extended_fraction)
                     : 2.0;
    return cfg.p * mean_probes;
}

}  // namespace bb::core

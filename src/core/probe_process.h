// The geometric probe process of paper §5.2/§5.3: at each slot, start an
// experiment independently with probability p.  Under the improved design
// each started experiment is, with probability 1/2, an extended (3-probe)
// experiment instead of a basic (2-probe) one.  A weighting knob exposes the
// §5.5 "unequal weighing" modification.
#ifndef BB_CORE_PROBE_PROCESS_H
#define BB_CORE_PROBE_PROCESS_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/report_sink.h"
#include "core/types.h"
#include "util/rng.h"

namespace bb::core {

struct ProbeDesign {
    std::vector<Experiment> experiments;   // ordered by start slot
    std::vector<SlotIndex> probe_slots;    // sorted, unique slots that need a probe
};

struct ProbeProcessConfig {
    double p{0.3};              // experiment start probability per slot
    bool improved{false};       // mix in extended experiments
    double extended_fraction{0.5};  // P(extended | experiment started)
};

// A config's two Bernoulli draws as thresholds on the raw word, computed
// once per config (util/rng.h).
struct StartThresholds {
    explicit StartThresholds(const ProbeProcessConfig& cfg) noexcept
        : start{cfg.p}, extended{cfg.extended_fraction}, improved{cfg.improved} {}

    BernoulliThreshold start;
    BernoulliThreshold extended;
    bool improved;
};

// The per-slot start draw every designer makes, in this order: Bernoulli(p)
// for a start, then — only if one started and the design is improved —
// Bernoulli(extended_fraction) for its kind.  Returns the kind of the
// experiment starting at this slot, or nullopt.  Keeping the draw in one
// place is what makes the batch designer and the streaming scorer consume
// the Rng identically; each draw takes the raw words, and gives the
// answers, of `uniform01() < p`.
[[nodiscard]] inline std::optional<ExperimentKind> draw_experiment_start(
    Rng& rng, const StartThresholds& t) {
    if (!rng.bernoulli(t.start)) return std::nullopt;
    return t.improved && rng.bernoulli(t.extended) ? ExperimentKind::extended
                                                   : ExperimentKind::basic;
}

// Draw a full design for `total_slots` slots.
[[nodiscard]] ProbeDesign design_probe_process(Rng& rng, SlotIndex total_slots,
                                               const ProbeProcessConfig& cfg);

// Expected probing load: probes per slot (before slot-sharing between
// overlapping experiments, which only reduces it).
[[nodiscard]] double expected_probe_slot_fraction(const ProbeProcessConfig& cfg) noexcept;

// Turn a design plus a per-slot congestion marking into experiment reports,
// streamed into `sink` in start-slot order.  `congested(slot)` must return
// the mark for every slot in probe_slots.  A one-element span scores a single
// experiment, for designs that are themselves read as a stream.
template <typename MarkFn>
void score_experiments_into(std::span<const Experiment> experiments, MarkFn&& congested,
                            ReportSink& sink) {
    for (const auto& e : experiments) {
        if (e.kind == ExperimentKind::basic) {
            sink.consume({ExperimentKind::basic,
                          basic_code(congested(e.start_slot), congested(e.start_slot + 1))});
        } else {
            sink.consume({ExperimentKind::extended,
                          extended_code(congested(e.start_slot), congested(e.start_slot + 1),
                                        congested(e.start_slot + 2))});
        }
    }
}

// Batch wrapper around the streaming scorer.
template <typename MarkFn>
[[nodiscard]] std::vector<ExperimentResult> score_experiments(
    const std::vector<Experiment>& experiments, MarkFn&& congested) {
    VectorSink<ExperimentResult> sink;
    sink.reserve(experiments.size());
    score_experiments_into(experiments, congested, sink);
    return sink.take();
}

// Fully streaming design + scoring: makes the per-slot Bernoulli(p) decision
// online and emits each experiment's report into `sink` as soon as its last
// slot's congestion state is known, so no design or report vector is ever
// materialized — memory is O(1) regardless of run length.
//
// Feeding step(congested) once per slot, in slot order, with the Rng the
// batch path would hand to design_probe_process, produces a report stream
// bit-identical to design_probe_process + score_experiments: the RNG draw
// order per slot is the same, and experiments still pending when the caller
// stops stepping are discarded exactly like the batch designer's "keep every
// experiment fully inside the window" rule.
class StreamingExperimentScorer {
public:
    StreamingExperimentScorer(Rng rng, const ProbeProcessConfig& cfg, ReportSink& sink);

    // Consume the congestion state of slot `slots_seen()` (states must arrive
    // in slot order, one call per slot).
    void step(bool congested);

    [[nodiscard]] SlotIndex slots_seen() const noexcept { return slot_; }
    [[nodiscard]] std::uint64_t experiments_started() const noexcept { return started_; }
    [[nodiscard]] std::uint64_t experiments_completed() const noexcept { return completed_; }
    // Experiments started but still awaiting slots (dropped if never fed):
    // the one the newest slot started, plus an extended one the slot before
    // it started.
    [[nodiscard]] int experiments_pending() const noexcept {
        return ((starts_ & 0x3) != kNone ? 1 : 0) + (((starts_ >> 2) & 0x3) == kExtended ? 1 : 0);
    }

private:
    // Start kinds in the `starts_` register.
    static constexpr unsigned kNone = 0;
    static constexpr unsigned kBasic = 1;
    static constexpr unsigned kExtended = 2;

    StartThresholds draw_;
    ReportSink* sink_;
    SlotIndex slot_{0};
    std::uint64_t started_{0};
    std::uint64_t completed_{0};
    // Shift registers over the last three slots, newest in the low bits: the
    // kind of experiment each slot started (2 bits a slot) and its congestion
    // mark (1 bit a slot).  Experiments span at most three slots, so nothing
    // older can still be pending.
    std::uint8_t starts_{0};
    std::uint8_t marks_{0};
    Rng rng_;  // last, see util/rng.h
};

}  // namespace bb::core

#endif  // BB_CORE_PROBE_PROCESS_H

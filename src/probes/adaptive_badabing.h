// Open-ended BADABING measurement (paper §5.1/§7): instead of a fixed number
// of slots, the sender makes the per-slot Bernoulli(p) decision online and
// periodically evaluates the §5.4 validation-based stopping rule on the data
// collected so far; probing ceases as soon as the rule fires ("take
// measurements continuously, and report when the validation techniques
// confirm that the estimation is robust").
#ifndef BB_PROBES_ADAPTIVE_BADABING_H
#define BB_PROBES_ADAPTIVE_BADABING_H

#include <cstdint>
#include <map>
#include <vector>

#include "core/estimators.h"
#include "core/marking.h"
#include "core/probe_process.h"
#include "core/types.h"
#include "core/validation.h"
#include "probes/badabing.h"
#include "probes/probe_train.h"
#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace bb::probes {

struct AdaptiveBadabingConfig {
    TimeNs slot_width{milliseconds(5)};
    double p{0.3};
    bool improved{true};  // extended experiments feed the validation tests
    double extended_fraction{0.5};
    int packets_per_probe{3};
    std::int32_t packet_bytes{600};
    TimeNs intra_probe_gap{microseconds(30)};
    sim::FlowId flow{7900};
    TimeNs start{TimeNs::zero()};
    TimeNs max_duration{seconds_i(3600)};  // hard cap on the open-ended run
    TimeNs evaluation_interval{seconds_i(30)};
    // Only probes at least this old count as complete during evaluation
    // (in flight packets would otherwise read as losses).
    TimeNs settle_margin{seconds_i(1)};
    core::MarkingConfig marking{};
    core::StoppingRule::Config stopping{};
};

class AdaptiveBadabingTool final : public sim::PacketSink {
public:
    // Throws std::invalid_argument unless a probe's train ends within its
    // slot: (packets_per_probe − 1) × intra_probe_gap < slot_width.
    AdaptiveBadabingTool(sim::Scheduler& sched, const AdaptiveBadabingConfig& cfg,
                         sim::PacketSink& out, Rng rng);

    AdaptiveBadabingTool(const AdaptiveBadabingTool&) = delete;
    AdaptiveBadabingTool& operator=(const AdaptiveBadabingTool&) = delete;

    void accept(const sim::Packet& pkt) override;  // receiver side

    [[nodiscard]] bool stopped() const noexcept { return stopped_; }
    [[nodiscard]] core::StoppingRule::Decision decision() const noexcept { return decision_; }
    [[nodiscard]] TimeNs stopped_at() const noexcept { return stopped_at_; }
    [[nodiscard]] std::uint64_t probes_sent() const noexcept { return probes_sent_; }
    [[nodiscard]] std::size_t experiments_started() const noexcept {
        return experiments_.size();
    }

    // Estimates over everything measured so far (or the final data after the
    // rule fired).
    struct Snapshot {
        core::FrequencyEstimate frequency;
        core::DurationEstimate duration_basic;
        core::DurationEstimate duration_improved;
        core::ValidationReport validation;
    };
    [[nodiscard]] Snapshot snapshot() const;

private:
    void slot_tick();
    void emit_probe(core::SlotIndex slot);
    void evaluate();
    [[nodiscard]] core::StateCounts counts_up_to(TimeNs horizon) const;

    sim::Scheduler* sched_;
    AdaptiveBadabingConfig cfg_;
    ProbeTrain train_;
    Rng rng_;
    core::ProbeProcessConfig design_;  // the per-slot start draw's parameters
    core::StoppingRule rule_;

    core::SlotIndex current_slot_{0};
    std::vector<core::Experiment> experiments_;
    // Both maps are ordered by slot: counts_up_to() iterates them, and a
    // hashed walk there would reorder outcome assembly (determinism rule
    // no-unordered-container, DESIGN.md §14).
    std::map<core::SlotIndex, TimeNs> probe_sent_at_;  // slot -> send time
    struct SlotRecord {
        int received{0};
        TimeNs max_owd{TimeNs::zero()};
    };
    std::map<core::SlotIndex, SlotRecord> records_;

    bool stopped_{false};
    core::StoppingRule::Decision decision_{core::StoppingRule::Decision::keep_going};
    TimeNs stopped_at_{TimeNs::zero()};
    std::uint64_t probes_sent_{0};
};

}  // namespace bb::probes

#endif  // BB_PROBES_ADAPTIVE_BADABING_H

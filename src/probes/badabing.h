// BADABING measurement tool over the simulator (paper §6).
//
// The sender realizes the §5 probe process: time is divided into slots of
// `slot_width`; a pre-drawn design decides at which slots experiments start;
// each probed slot gets one probe of `packets_per_probe` back-to-back
// packets.  The receiver records per-probe loss and one-way delay; at the
// end of the run, outcomes are marked congested/uncongested with the tau /
// alpha rule (core::CongestionMarker), experiments are scored, and both the
// basic and improved estimators plus the validation report are produced.
#ifndef BB_PROBES_BADABING_H
#define BB_PROBES_BADABING_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/estimators.h"
#include "core/marking.h"
#include "core/probe_process.h"
#include "core/report_sink.h"
#include "core/types.h"
#include "core/validation.h"
#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace bb::probes {

struct BadabingConfig {
    TimeNs slot_width{milliseconds(5)};   // paper §6.2
    double p{0.3};                        // probe (experiment) probability
    bool improved{false};                 // mix in 3-probe extended experiments
    double extended_fraction{0.5};
    int packets_per_probe{3};             // paper §6.2
    std::int32_t packet_bytes{600};       // paper §6.1
    TimeNs intra_probe_gap{microseconds(30)};  // back-to-back spacing (§6.1)
    sim::FlowId flow{7700};
    TimeNs start{TimeNs::zero()};
    core::SlotIndex total_slots{180'000};  // paper §6.2: 900 s at 5 ms
    // Send ECN-capable (ECT) probe packets: an AQM hop CE-marks instead of
    // dropping them, and the outcome records the mark as a congestion
    // observation (ProbeOutcome::ce_marked).
    bool ecn_probes{false};
    // Receiver clock error relative to the sender (§7 discussion).  A
    // constant offset shifts all OWDs and must not change the estimates;
    // skew (drift, in parts-per-million of elapsed time) slowly moves the
    // measured delays and eventually corrupts the (1 - alpha) threshold —
    // the reason the paper points at on-line synchronization algorithms.
    TimeNs receiver_clock_offset{TimeNs::zero()};
    double receiver_clock_skew_ppm{0.0};
};

struct BadabingResult {
    core::FrequencyEstimate frequency;
    core::DurationEstimate duration_basic;
    core::DurationEstimate duration_improved;
    core::ValidationReport validation;
    core::StateCounts counts;

    std::uint64_t probes_sent{0};
    std::uint64_t packets_sent{0};
    std::uint64_t packets_lost{0};
    std::int64_t bytes_sent{0};
    std::size_t experiments{0};

    double frequency_value() const noexcept { return frequency.value; }
    double duration_seconds(TimeNs slot_width) const noexcept {
        return duration_basic.valid ? duration_basic.seconds(slot_width) : 0.0;
    }
};

class BadabingTool final : public sim::PacketSink {
public:
    // Probes are emitted into `out`; bind this object into the far-side
    // demux under `cfg.flow` so it receives them.
    BadabingTool(sim::Scheduler& sched, const BadabingConfig& cfg, sim::PacketSink& out,
                 Rng rng);

    BadabingTool(const BadabingTool&) = delete;
    BadabingTool& operator=(const BadabingTool&) = delete;

    void accept(const sim::Packet& pkt) override;  // receiver side

    // Evaluate after the simulation drained.  Marking parameters are supplied
    // here so one run can be re-analyzed under many tau/alpha settings
    // (Figure 9) without re-simulating.
    [[nodiscard]] BadabingResult analyze(const core::MarkingConfig& marking,
                                         core::EstimatorOptions opts = {}) const;

    // Raw probe outcomes (sorted by send time), for custom analyses.
    [[nodiscard]] std::vector<core::ProbeOutcome> outcomes() const;

    // Streaming forms: push each outcome / scored experiment report into a
    // sink instead of materializing a vector.  emit_reports still marks over
    // the full outcome record internally (the tau/alpha marker is two-pass),
    // but the report consumer runs in O(1) memory.
    void stream_outcomes(core::OutcomeSink& sink) const;
    void emit_reports(const core::MarkingConfig& marking, core::ReportSink& sink) const;

    [[nodiscard]] const core::ProbeDesign& design() const noexcept { return design_; }
    [[nodiscard]] std::int64_t bytes_sent() const noexcept { return bytes_sent_; }
    [[nodiscard]] TimeNs slot_width() const noexcept { return cfg_.slot_width; }

    // Live tallies (readable mid-run; the sim-time recorder samples these).
    [[nodiscard]] std::uint64_t probes_sent() const noexcept { return probes_sent_; }
    [[nodiscard]] std::uint64_t packets_sent() const noexcept { return packets_sent_; }
    [[nodiscard]] std::uint64_t packets_received() const noexcept {
        return packets_received_;
    }

    // Offered probe load as a fraction of `link_rate_bps` over the run.
    [[nodiscard]] double offered_load_fraction(std::int64_t link_rate_bps) const noexcept;

private:
    struct SlotRecord {
        int received{0};
        TimeNs max_owd{TimeNs::zero()};
        bool ce{false};
    };

    void emit_probe(core::SlotIndex slot);

    sim::Scheduler* sched_;
    BadabingConfig cfg_;
    sim::PacketSink* out_;
    sim::EventLane probe_lane_;  // the pre-drawn probe schedule
    core::ProbeDesign design_;
    std::size_t next_probe_{0};  // index into design_.probe_slots
    std::uint64_t next_id_;

    // Parallel to design_.probe_slots: records_[k] is the k-th probe's.
    std::vector<SlotRecord> records_;
    std::uint64_t probes_sent_{0};
    std::uint64_t packets_sent_{0};
    std::uint64_t packets_received_{0};
    std::int64_t bytes_sent_{0};
};

// Fixed-interval prober used for the probe-length calibration experiments
// (Figures 7 and 8): probes of N packets every `interval`, independent of p.
class FixedIntervalProber final : public sim::PacketSink {
public:
    struct Config {
        TimeNs interval{milliseconds(10)};
        int packets_per_probe{3};
        std::int32_t packet_bytes{600};
        TimeNs intra_probe_gap{microseconds(30)};
        sim::FlowId flow{7800};
        TimeNs start{TimeNs::zero()};
        TimeNs stop{TimeNs::max()};
    };

    FixedIntervalProber(sim::Scheduler& sched, const Config& cfg, sim::PacketSink& out);

    FixedIntervalProber(const FixedIntervalProber&) = delete;
    FixedIntervalProber& operator=(const FixedIntervalProber&) = delete;

    void accept(const sim::Packet& pkt) override;

    // Outcomes sorted by send time; `slot` is the probe's ordinal number.
    [[nodiscard]] std::vector<core::ProbeOutcome> outcomes() const;
    void stream_outcomes(core::OutcomeSink& sink) const;

private:
    void emit();

    sim::Scheduler* sched_;
    Config cfg_;
    sim::PacketSink* out_;
    std::uint64_t next_id_;

    std::vector<TimeNs> send_times_;
    std::vector<int> received_;
    std::vector<TimeNs> max_owd_;
};

}  // namespace bb::probes

#endif  // BB_PROBES_BADABING_H

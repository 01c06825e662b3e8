// Engineered loss-episode generator (paper §4.2, Tables 2/5):
// overload bursts spaced at exponential intervals, each sized so that the
// bottleneck buffer fills and then overflows for (approximately) a chosen
// episode duration.
#ifndef BB_TRAFFIC_EPISODIC_H
#define BB_TRAFFIC_EPISODIC_H

#include <cstdint>
#include <vector>

#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/time.h"

namespace bb::traffic {

class EpisodicBurstSource {
public:
    struct Config {
        // Episode durations to draw from uniformly.  One entry gives the
        // paper's "constant duration" scenario; {50,100,150} ms gives the
        // Table 5 scenario.
        std::vector<TimeNs> episode_durations{milliseconds(68)};
        TimeNs mean_gap{seconds_i(10)};  // exponential episode spacing
        // 0 => 2x the bottleneck rate, which reproduces the paper's probe
        // survival behaviour (about half of single-packet probes pass through
        // an episode unscathed, Figure 7).
        std::int64_t burst_rate_bps{0};
        std::int32_t packet_bytes{1500};
        sim::FlowId flow{9100};
        TimeNs start{milliseconds(500)};
        TimeNs stop{TimeNs::max()};
        // Bottleneck parameters needed to size the queue-filling preamble.
        std::int64_t bottleneck_rate_bps{155'000'000};
        std::int64_t bottleneck_capacity_bytes{0};
        // Background load present on the link, as a fraction of capacity
        // (used to compute the effective fill rate during a burst).
        double background_load{0.5};
    };

    EpisodicBurstSource(sim::Scheduler& sched, const Config& cfg, sim::PacketSink& out,
                        Rng rng);

    EpisodicBurstSource(const EpisodicBurstSource&) = delete;
    EpisodicBurstSource& operator=(const EpisodicBurstSource&) = delete;

    [[nodiscard]] std::uint64_t bursts_started() const noexcept { return bursts_; }
    [[nodiscard]] std::uint64_t packets_sent() const noexcept { return sent_; }

    // How long a burst must last so that drops persist for `episode`: the
    // queue fill time at the net overload rate, plus the episode itself.
    [[nodiscard]] TimeNs burst_length_for(TimeNs episode) const noexcept;

private:
    void schedule_next_burst();
    void start_burst();
    void emit(TimeNs burst_end);

    sim::Scheduler* sched_;
    Config cfg_;
    sim::PacketSink* out_;
    std::int64_t burst_rate_bps_;
    TimeNs packet_interval_;
    std::uint64_t bursts_{0};
    std::uint64_t sent_{0};
    std::uint64_t next_id_;
    Rng rng_;  // last, see util/rng.h
};

}  // namespace bb::traffic

#endif  // BB_TRAFFIC_EPISODIC_H

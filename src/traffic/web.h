// Harpoon-style self-similar web traffic (paper §4.2, Tables 3/6):
// Poisson session arrivals; each session fetches a sequence of objects with
// heavy-tailed (Pareto) sizes over its own TCP connection, separated by
// exponential think times.  The aggregate produces bursty episodes of
// overload at the bottleneck.
#ifndef BB_TRAFFIC_WEB_H
#define BB_TRAFFIC_WEB_H

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/demux.h"
#include "sim/packet.h"
#include "sim/scheduler.h"
#include "tcp/tcp_flow.h"
#include "util/rng.h"

namespace bb::traffic {

class WebSessionGenerator {
public:
    struct Config {
        double session_rate_per_s{4.0};     // Poisson arrival rate of sessions
        double objects_per_session_mean{6.0};  // geometric
        double pareto_alpha{1.2};           // heavy-tailed object sizes
        double object_min_bytes{10'000.0};  // Pareto scale (minimum size)
        double object_max_bytes{50e6};      // truncate the tail
        TimeNs think_time_mean{milliseconds(500)};
        sim::FlowId first_flow{20'000};     // flow-id block for this generator
        TimeNs start{TimeNs::zero()};
        TimeNs stop{TimeNs::max()};
        tcp::TcpConfig tcp{};
        // Harpoon's defining feature is *self-configuration*: it tunes its
        // session arrival process to hit a target average byte rate
        // (Sommers & Barford, IMC'04).  When > 0, the generator adjusts the
        // session rate every `adjust_interval` toward this offered load.
        std::int64_t target_offered_bps{0};
        TimeNs adjust_interval{seconds_i(5)};
    };

    WebSessionGenerator(sim::Scheduler& sched, const Config& cfg, sim::PacketSink& forward,
                        sim::PacketSink& reverse, sim::FlowDemux& fwd_demux,
                        sim::FlowDemux& rev_demux, Rng rng);

    WebSessionGenerator(const WebSessionGenerator&) = delete;
    WebSessionGenerator& operator=(const WebSessionGenerator&) = delete;

    [[nodiscard]] std::uint64_t sessions_started() const noexcept { return sessions_; }
    [[nodiscard]] std::uint64_t objects_started() const noexcept { return objects_; }
    [[nodiscard]] std::uint64_t objects_completed() const noexcept { return completed_; }
    [[nodiscard]] std::int64_t bytes_offered() const noexcept { return bytes_offered_; }
    // Current (possibly self-tuned) session arrival rate.
    [[nodiscard]] double session_rate_per_s() const noexcept { return session_rate_; }

private:
    void schedule_next_session();
    void start_session();
    void start_object(std::uint32_t remaining_objects);
    void adjust_rate();
    [[nodiscard]] std::int64_t draw_object_bytes();

    sim::Scheduler* sched_;
    Config cfg_;
    sim::PacketSink* forward_;
    sim::PacketSink* reverse_;
    sim::FlowDemux* fwd_demux_;
    sim::FlowDemux* rev_demux_;

    sim::FlowId next_flow_;
    std::uint64_t sessions_{0};
    std::uint64_t objects_{0};
    std::uint64_t completed_{0};
    std::int64_t bytes_offered_{0};
    double session_rate_{0.0};
    std::int64_t offered_at_last_adjust_{0};
    std::vector<std::unique_ptr<tcp::TcpFlow>> flows_;
    Rng rng_;  // last, see util/rng.h
};

}  // namespace bb::traffic

#endif  // BB_TRAFFIC_WEB_H

// The three cross-traffic scenarios of paper §4/§6, built over a Testbed.
#ifndef BB_SCENARIOS_WORKLOAD_H
#define BB_SCENARIOS_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <vector>

#include "scenarios/testbed.h"
#include "tcp/tcp_flow.h"
#include "traffic/cbr.h"
#include "traffic/episodic.h"
#include "traffic/web.h"
#include "util/rng.h"

namespace bb::scenarios {

enum class TrafficKind {
    infinite_tcp,  // 40 long-lived TCP flows (Table 1, Fig 4)
    cbr_uniform,   // CBR + constant-duration engineered episodes (Tables 2/4, Fig 5)
    cbr_multi,     // CBR + {50,100,150} ms episodes (Table 5)
    web,           // Harpoon-like web sessions over TCP (Tables 3/6, Fig 6)
};

struct WorkloadConfig {
    TrafficKind kind{TrafficKind::cbr_uniform};
    TimeNs duration{seconds_i(900)};  // paper: 15-minute runs
    std::uint64_t seed{1};

    // infinite_tcp / web
    int tcp_flows{40};
    std::int64_t tcp_rwnd_segments{256};  // paper §4.2
    // ECN-capable TCP sources: AQM marks back them off without drops, so
    // congestion episodes can exist with (almost) no loss signal.
    bool tcp_ecn{false};

    // cbr_*
    // Standing CBR load as a fraction of capacity.  The paper's Figure 5
    // shows the queue flat at zero between the engineered episodes, i.e. the
    // link is otherwise idle; 0 reproduces that (and keeps the (1-alpha)
    // high-water crossing sharp).  Set > 0 to study slow-drain shoulders.
    double cbr_background_load{0.0};
    TimeNs episode_duration{milliseconds(68)};
    std::vector<TimeNs> episode_durations{};  // overrides episode_duration if set
    TimeNs mean_episode_gap{seconds_i(10)};

    // web
    double web_session_rate_per_s{5.0};
    double web_objects_per_session{6.0};
    double web_pareto_alpha{1.2};
    double web_object_min_bytes{12'000.0};
    TimeNs web_think_time{milliseconds(500)};
};

// Owns all sources of a scenario; keeps them alive for the run.
class Workload {
public:
    Workload(Testbed& tb, const WorkloadConfig& cfg);

    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    [[nodiscard]] const WorkloadConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] const std::vector<std::unique_ptr<tcp::TcpFlow>>& tcp_flows() const noexcept {
        return tcp_flows_;
    }
    [[nodiscard]] const traffic::WebSessionGenerator* web() const noexcept {
        return web_.get();
    }

private:
    void build_infinite_tcp(Testbed& tb);
    void build_cbr(Testbed& tb);
    void build_web(Testbed& tb);

    WorkloadConfig cfg_;
    std::vector<std::unique_ptr<tcp::TcpFlow>> tcp_flows_;
    std::vector<std::unique_ptr<traffic::CbrSource>> cbr_;
    std::vector<std::unique_ptr<traffic::EpisodicBurstSource>> bursts_;
    std::unique_ptr<traffic::WebSessionGenerator> web_;
    Rng rng_;  // last, see util/rng.h
};

}  // namespace bb::scenarios

#endif  // BB_SCENARIOS_WORKLOAD_H

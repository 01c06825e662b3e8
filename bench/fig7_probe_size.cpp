// Figure 7: probability that a probe of N back-to-back packets experiences
// no loss even though it was sent during a loss episode, for N = 1..10,
// under infinite-TCP and CBR traffic.  Writes fig_data/fig7_probe_size.csv;
// exits nonzero when it cannot.
//
// Each scenario is a spec document on the default dumbbell (30 Mb/s, 50 ms
// one-way delay, 100 ms buffer, seed 7) with no probe tool of its own,
// built by build_experiment; the program attaches a fixed-interval prober.
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "scenarios/spec.h"
#include "util/json_io.h"

namespace {

using namespace bb;

// 300 s runs; 10 TCP flows at 30 Mb/s keep the per-flow share of the paper's
// 40 flows on OC3.
constexpr const char* kTcp =
    R"({"traffic": {"kind": "infinite_tcp", "duration_s": 300, "tcp_flows": 10},
        "probe": {"tool": "none"}})";
constexpr const char* kCbr =
    R"({"traffic": {"kind": "cbr_uniform", "duration_s": 300, "episode_ms": 68,
                    "mean_episode_gap_s": 10},
        "probe": {"tool": "none"}})";

// Fraction of probes sent inside a true loss episode that saw no loss.
double miss_probability(const scenarios::ScenarioSpec& spec, int probe_packets) {
    const scenarios::BuiltExperiment built = scenarios::build_experiment(spec);
    scenarios::Experiment& exp = *built.experiment;

    probes::FixedIntervalProber::Config pc;
    pc.interval = milliseconds(10);  // paper: fixed 10 ms so probes hit episodes
    pc.packets_per_probe = probe_packets;
    auto& prober = exp.add_fixed_prober(pc);
    exp.run();

    const auto episodes = exp.episodes();
    const auto outcomes = prober.outcomes();

    std::size_t in_episode = 0;
    std::size_t unscathed = 0;
    auto it = episodes.begin();
    for (const auto& po : outcomes) {
        while (it != episodes.end() && it->end < po.send_time) ++it;
        if (it == episodes.end()) break;
        if (po.send_time >= it->start && po.send_time <= it->end) {
            ++in_episode;
            if (!po.any_lost()) ++unscathed;
        }
    }
    return in_episode > 0
               ? static_cast<double>(unscathed) / static_cast<double>(in_episode)
               : 0.0;
}

}  // namespace

int main() {
    const auto tcp = scenarios::load_scenario_spec_text(kTcp, "fig7 tcp");
    const auto cbr = scenarios::load_scenario_spec_text(kCbr, "fig7 cbr");
    for (const auto* parsed : {&tcp, &cbr}) {
        if (!parsed->ok) {
            std::fprintf(stderr, "%s\n", parsed->error.c_str());
            return 1;
        }
    }
    std::printf("================================================================\n"
                "Figure 7: P(probe of N packets sees no loss during a loss episode)\n"
                "reproduces: Sommers et al., SIGCOMM 2005, Figure 7\n"
                "================================================================\n");
    std::printf("%-4s | %-14s | %-14s\n", "N", "infinite TCP", "CBR bursts");
    std::printf("-----------------------------------\n");
    std::ostringstream csv;
    csv << "probe_packets,tcp_miss_probability,cbr_miss_probability\n";
    for (int n = 1; n <= 10; ++n) {
        const double tcp_miss = miss_probability(tcp.spec, n);
        const double cbr_miss = miss_probability(cbr.spec, n);
        std::printf("%-4d | %-14.3f | %-14.3f\n", n, tcp_miss, cbr_miss);
        csv << n << ',' << tcp_miss << ',' << cbr_miss << '\n';
    }
    const char* path = "fig_data/fig7_probe_size.csv";
    std::error_code ec;
    std::filesystem::create_directories("fig_data", ec);
    if (!write_text_file(path, csv.str())) {
        std::fprintf(stderr, "fig7_probe_size: no data written to %s\n", path);
        return 1;
    }
    std::printf("data written to %s\n", path);
    std::printf("\nexpected shape (paper): the miss probability falls as probes get\n"
                "longer; a few packets per probe already make loss episodes much more\n"
                "reliably visible (motivating BADABING's 3-packet probes).\n");
    return 0;
}

// Figure 8: impact of probe-train length on the queue dynamics during loss
// episodes.  Compares no probes vs 3-packet vs 10-packet trains at a fixed
// 10 ms interval under infinite-TCP traffic, reporting how the probe load
// perturbs the loss process it is trying to measure.  Writes a 30 s queue
// excerpt per train length to fig_data/; exits nonzero when it cannot.
//
// The scenario is a spec document on the default dumbbell (30 Mb/s, 50 ms
// one-way delay, 100 ms buffer, seed 7) with no probe tool of its own, built
// by build_experiment; the program attaches a fixed-interval prober.  The
// excerpt is ExperimentRecorder's sim.queue.delay_s gauge over a 30 s window
// at 1 ms, with a bin budget that never downsamples it.
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "measure/loss_monitor.h"
#include "obs/control.h"
#include "obs/recorder.h"
#include "obs/timeseries.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"
#include "util/json_io.h"

namespace {

using namespace bb;

// 300 s of 10 TCP flows (at 30 Mb/s, the per-flow share of the paper's 40
// flows on OC3).
constexpr const char* kTcp =
    R"({"traffic": {"kind": "infinite_tcp", "duration_s": 300, "tcp_flows": 10},
        "probe": {"tool": "none"}})";

struct ImpactRow {
    measure::TruthSummary truth;
    std::uint64_t cross_drops{0};
    std::uint64_t probe_drops{0};
    double probe_load{0.0};
};

bool run_one(const scenarios::ScenarioSpec& spec, int probe_packets, ImpactRow& row) {
    const scenarios::BuiltExperiment built = scenarios::build_experiment(spec);
    scenarios::Experiment& exp = *built.experiment;

    probes::FixedIntervalProber::Config pc;
    pc.interval = milliseconds(10);
    pc.packets_per_probe = probe_packets;
    probes::FixedIntervalProber* prober =
        probe_packets > 0 ? &exp.add_fixed_prober(pc) : nullptr;

    // Sample a short excerpt of the queue for the CSV, as in the figure:
    // 30 s at 1 ms fits 2^15 bins with no merging.
    scenarios::SimRecordingConfig rc;
    rc.enabled = true;
    rc.interval = milliseconds(1);
    rc.horizon = seconds_i(30);
    rc.budget_bins = 32768;
    scenarios::ExperimentRecorder recording{exp, rc};
    exp.run();
    recording.finish();

    const std::string path =
        "fig_data/fig8_probes" + std::to_string(probe_packets) + "_queue.csv";
    const obs::TimeSeries* series = recording.recorder().find("sim.queue.delay_s");
    if (series == nullptr || series->merges() != 0) {
        std::fprintf(stderr, "fig8_probe_impact: recorder series missing or downsampled\n");
        return false;
    }
    std::ostringstream csv;
    csv << "t_seconds,queue_delay_seconds\n";
    const double bin_s = static_cast<double>(series->bin_width_ns()) * 1e-9;
    for (std::size_t i = 0; i < series->bins().size(); ++i) {
        const auto& bin = series->bins()[i];
        if (bin.count > 0) csv << static_cast<double>(i) * bin_s << ',' << bin.last << '\n';
    }
    if (!write_text_file(path, csv.str())) {
        std::fprintf(stderr, "fig8_probe_impact: no data written to %s\n", path.c_str());
        return false;
    }

    row.truth = exp.truth();
    row.cross_drops = exp.monitor().cross_traffic_drops();
    row.probe_drops = exp.monitor().probe_drops();
    if (prober != nullptr) {
        // Bytes the prober sent over the workload, as a share of the
        // bottleneck's capacity.
        const double bits = static_cast<double>(prober->outcomes().size()) *
                            pc.packets_per_probe * pc.packet_bytes * 8.0;
        row.probe_load = bits / (static_cast<double>(spec.testbed.bottleneck_rate_bps) *
                                 spec.workload.duration.to_seconds());
    }
    return true;
}

}  // namespace

int main() {
    // The queue excerpts ride on the obs layer; force it on regardless of
    // ambient BB_OBS.
    obs::set_enabled(true);
    const auto parsed = scenarios::load_scenario_spec_text(kTcp, "fig8 tcp");
    if (!parsed.ok) {
        std::fprintf(stderr, "%s\n", parsed.error.c_str());
        return 1;
    }
    std::printf("================================================================\n"
                "Figure 8: probe-train impact on queue/loss dynamics (10 ms interval)\n"
                "reproduces: Sommers et al., SIGCOMM 2005, Figure 8\n"
                "================================================================\n");
    std::printf("%-10s | %-9s | %-9s | %-11s | %-11s | %-9s\n", "probe pkts", "freq",
                "dur (s)", "cross drops", "probe drops", "probe load");
    std::printf("----------------------------------------------------------------------\n");
    std::error_code ec;
    std::filesystem::create_directories("fig_data", ec);
    for (const int n : {0, 3, 10}) {
        ImpactRow r;
        if (!run_one(parsed.spec, n, r)) return 1;
        std::printf("%-10d | %-9.4f | %-9.3f | %-11llu | %-11llu | %-9.4f\n", n,
                    r.truth.frequency, r.truth.mean_duration_s,
                    static_cast<unsigned long long>(r.cross_drops),
                    static_cast<unsigned long long>(r.probe_drops), r.probe_load);
    }
    std::printf("\nqueue excerpts written to fig_data/fig8_probes{0,3,10}_queue.csv\n");
    std::printf("expected shape (paper): 3-packet probes perturb the loss process only\n"
                "mildly, while 10-packet trains visibly increase drops and lengthen the\n"
                "episodes they are trying to observe.\n");
    return 0;
}

// Figures 4, 5, 6: queue-length (expressed as queueing delay in seconds)
// time series for the three traffic scenarios.  Writes one CSV per scenario
// into ./fig_data/ and prints summary statistics of the series; exits
// nonzero when a series or a CSV is missing.
//
// Each scenario is a spec document on the default dumbbell (30 Mb/s, 50 ms
// one-way delay, 100 ms buffer, seed 7), built by build_experiment.  The
// series comes from ExperimentRecorder's sim.queue.delay_s gauge: the bin
// budget is sized so a 60 s window at 1 ms cadence never downsamples, which
// makes each bin exactly one sample (tests/sim_record_test.cpp pins that
// equivalence).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "obs/control.h"
#include "obs/recorder.h"
#include "obs/timeseries.h"
#include "scenarios/sim_record.h"
#include "scenarios/spec.h"
#include "util/json_io.h"

namespace {

using namespace bb;

// The paper's figures show a ~10-30 s excerpt; each scenario runs 60 s and is
// sampled at 1 ms.  10 TCP flows at 30 Mb/s keep the per-flow share of the
// paper's 40 flows on OC3; web sessions arrive at 5/s so overload episodes
// appear roughly every 20 s (§4.2).
struct Scenario {
    const char* name;
    const char* paper_fig;
    const char* spec;
};
constexpr Scenario kScenarios[] = {
    {"infinite_tcp", "Fig 4",
     R"({"traffic": {"kind": "infinite_tcp", "duration_s": 60, "tcp_flows": 10},
         "probe": {"tool": "none"}})"},
    {"cbr_uniform", "Fig 5",
     R"({"traffic": {"kind": "cbr_uniform", "duration_s": 60, "episode_ms": 68,
                     "mean_episode_gap_s": 10},
         "probe": {"tool": "none"}})"},
    {"web", "Fig 6",
     R"({"traffic": {"kind": "web", "duration_s": 60, "web_session_rate_per_s": 5},
         "probe": {"tool": "none"}, "truth": {"delay_based": true}})"},
};

bool run_series(const Scenario& sc) {
    const auto parsed = scenarios::load_scenario_spec_text(sc.spec, sc.name);
    if (!parsed.ok) {
        std::fprintf(stderr, "%s\n", parsed.error.c_str());
        return false;
    }
    const scenarios::BuiltExperiment built = scenarios::build_experiment(parsed.spec);
    scenarios::Experiment& exp = *built.experiment;

    scenarios::SimRecordingConfig rc;
    rc.enabled = true;
    rc.interval = milliseconds(1);
    rc.horizon = parsed.spec.workload.duration;
    // 2^17 bins x 1 ms > 131 s: the 60 s window fits with no merging, so the
    // recorded series is the raw 1 ms samples.
    rc.budget_bins = 131072;
    scenarios::ExperimentRecorder recording{exp, rc};
    exp.run();
    recording.finish();

    const obs::TimeSeries* series = recording.recorder().find("sim.queue.delay_s");
    if (series == nullptr || series->merges() != 0) {
        std::fprintf(stderr, "%s (%s): recorder series missing or downsampled\n", sc.name,
                     sc.paper_fig);
        return false;
    }

    std::ostringstream csv;
    csv << "t_seconds,queue_delay_seconds\n";
    const auto truth = exp.truth();
    const double cap = exp.testbed().bottleneck().max_queueing_delay().to_seconds();
    const double bin_s = static_cast<double>(series->bin_width_ns()) * 1e-9;
    std::size_t samples = 0;
    std::size_t near_full = 0;
    std::size_t near_empty = 0;
    double sum = 0.0;
    double max_value = 0.0;
    for (std::size_t i = 0; i < series->bins().size(); ++i) {
        const auto& bin = series->bins()[i];
        if (bin.count == 0) continue;
        csv << static_cast<double>(i) * bin_s << ',' << bin.last << '\n';
        ++samples;
        sum += bin.last;
        max_value = std::max(max_value, bin.last);
        if (bin.last > 0.9 * cap) ++near_full;
        if (bin.last < 0.1 * cap) ++near_empty;
    }
    const std::string path = std::string("fig_data/") + sc.name + "_queue.csv";
    if (samples == 0 || !write_text_file(path, csv.str())) {
        std::fprintf(stderr, "%s (%s): no data written to %s\n", sc.name, sc.paper_fig,
                     path.c_str());
        return false;
    }

    const auto share = [samples](std::size_t n) {
        return 100.0 * static_cast<double>(n) / static_cast<double>(samples);
    };
    std::printf("%-14s (%s): %zu samples -> %s\n", sc.name, sc.paper_fig, samples,
                path.c_str());
    std::printf("    queue delay: mean %.4f s, max %.4f s (buffer %.3f s)\n",
                sum / static_cast<double>(samples), max_value, cap);
    std::printf("    %.1f%% of time near-full (>90%%), %.1f%% near-empty (<10%%); "
                "%zu loss episodes in the window\n",
                share(near_full), share(near_empty), truth.episodes);
    return true;
}

}  // namespace

int main() {
    // The figure data is the whole point of this binary; the recorder rides
    // on the obs layer, so force it on regardless of ambient BB_OBS.
    bb::obs::set_enabled(true);
    std::printf("================================================================\n"
                "Figures 4-6: bottleneck queue-length time series per scenario\n"
                "reproduces: Sommers et al., SIGCOMM 2005, Figures 4, 5, 6\n"
                "================================================================\n");
    std::error_code ec;
    std::filesystem::create_directories("fig_data", ec);
    for (const Scenario& sc : kScenarios) {
        if (!run_series(sc)) return 1;
    }
    std::printf("\nexpected shape (paper): Fig 4 shows the synchronized TCP sawtooth\n"
                "riding near the buffer limit; Fig 5 shows an idle queue with isolated\n"
                "~100 ms spikes at each engineered episode; Fig 6 shows irregular\n"
                "bursty excursions from the web workload.\n");
    return 0;
}

// Declarative scenario DSL: every hand-wired table/figure scenario as data.
//
// A ScenarioSpec is the parsed, validated, defaulted form of a JSON spec
// file covering all layers of one experiment: topology + link (rate, delay,
// buffer, queue discipline, ECN, Gilbert-Elliott), traffic mix, probe
// configuration (badabing / zing / sting, streaming on/off), truth knobs,
// marking overrides, and run controls (replicas / threads / seed).  The
// factories at the bottom turn a spec into the same Testbed / Experiment
// objects the hand-wired scenarios build — the golden suites pin that the
// two paths are bit-identical.  replica_runner.h turns it into a
// ReplicaPlan.
//
// Parsing is strict: unknown keys, out-of-range values, and type mismatches
// all fail with a one-line "<file>:<line>: <section>.<key>: <why>"
// diagnostic suitable for printing verbatim from a CLI.
#ifndef BB_SCENARIOS_SPEC_H
#define BB_SCENARIOS_SPEC_H

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "probes/sting.h"
#include "scenarios/experiment.h"
#include "util/json.h"

namespace bb::scenarios {

struct ScenarioSpec {
    enum class ProbeTool { badabing, zing, sting, none };

    std::string name;  // label for outputs; defaults to the file stem or "scenario"

    // The dumbbell (the only "topology" a spec may name).
    TestbedConfig testbed;
    WorkloadConfig workload;
    TruthConfig truth;

    ProbeTool tool{ProbeTool::badabing};
    probes::BadabingConfig badabing;
    probes::ZingProber::Config zing;
    probes::StingProber::Config sting;
    // Synthetic replicas instead of simulated ones: ReplicaRunner scores a
    // §5.2.1 alternating-renewal congestion series slot by slot in O(1)
    // memory with the BADABING design (so probe.tool must be badabing),
    // probe.badabing.total_slots long, or traffic.duration_s in slots when
    // that is 0.
    bool streaming{false};

    // Marking overrides; unset means the paper's per-p defaults
    // (tau_for_probe_rate / alpha_for_probe_rate via Experiment).
    std::optional<double> marking_alpha;
    std::optional<TimeNs> marking_tau;
    core::EstimatorOptions estimator;

    // Run controls ("run" section).
    std::size_t replicas{1};
    std::size_t threads{0};  // 0 = hardware concurrency
    std::uint64_t seed{7};
};

struct SpecResult {
    bool ok{false};
    ScenarioSpec spec;
    // One line, "<source>:<line>: <key path>: <message>" (no key path for a
    // top-level problem) — print verbatim.
    std::string error;
};

// Parse + validate + default a spec from an already-parsed JSON document.
[[nodiscard]] SpecResult parse_scenario_spec(const JsonValue& doc,
                                             std::string_view source);
// Convenience wrappers over json_parse / json_parse_file.
[[nodiscard]] SpecResult load_scenario_spec_text(std::string_view text,
                                                 std::string_view source);
[[nodiscard]] SpecResult load_scenario_spec_file(const std::string& path);

// Default output label for a spec file: its stem ("examples/table4.json" ->
// "table4"), or `fallback` when the stem is empty.
[[nodiscard]] std::string file_stem_or(std::string_view path, std::string_view fallback);

// Enum <-> spelling used by the DSL (and by sweep-axis values).
[[nodiscard]] const char* to_string(QueueDiscipline d) noexcept;
[[nodiscard]] const char* to_string(TrafficKind k) noexcept;
[[nodiscard]] const char* to_string(ScenarioSpec::ProbeTool t) noexcept;

// --- Factories ---------------------------------------------------------------

// The dumbbell testbed exactly as the hand-wired scenarios construct it.
// Direct `Testbed{...}` construction outside src/scenarios is lint-banned
// (no-adhoc-scenario); this is the sanctioned path.
[[nodiscard]] std::unique_ptr<Testbed> build_testbed(const ScenarioSpec& spec);

// A fully wired single-run experiment: testbed + workload + truth + the
// spec's probe tool attached.  Every simulated replica is built here.
struct BuiltExperiment {
    std::unique_ptr<Experiment> experiment;
    probes::BadabingTool* badabing{nullptr};  // set when tool == badabing
    probes::ZingProber* zing{nullptr};        // set when tool == zing
    probes::StingProber* sting{nullptr};      // set when tool == sting
};
[[nodiscard]] BuiltExperiment build_experiment(const ScenarioSpec& spec);

// Marking parameters for analyze(): the spec's explicit alpha/tau when set,
// else the paper's defaults for the spec's probe rate.
[[nodiscard]] core::MarkingConfig marking_for(const ScenarioSpec& spec);

}  // namespace bb::scenarios

#endif  // BB_SCENARIOS_SPEC_H

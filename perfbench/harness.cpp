// perfbench_harness: run one benchmark workload and print a JSON report.
//
//   perfbench_harness --workload=tcp_longlived --spec=perfbench/specs/tcp_longlived.json
//                    --seed=1 --seconds=10 --trace=0 --work-dir=.bench_out/work
//
// The harness measures and records; run.py checks the per-operation facts it
// reports and reduces the raw timings to the metrics named in BENCHMARK.json.
//
// Every workload is a closed-loop batch: job k runs the workload's spec (a
// fixed set of replicas or streams) on input k, whose master seed is derived
// from --seed, and starts when job k-1 finished; jobs run until --seconds
// have elapsed and at least --min-jobs have run.  With --trace=1 the harness
// instead runs rounds: round k feeds input k to each job configuration whose
// ratios give the per-layer overheads (traced, BB_OBS off, hash chain on/off,
// one worker), and records spans around each call it makes into a layer's
// public functions.  Spans are kept in memory and written at the end.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/probe_process.h"
#include "core/run_hasher.h"
#include "core/streaming.h"
#include "core/synthetic.h"
#include "obs/control.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "scenarios/replica_runner.h"
#include "scenarios/spec.h"
#include "scenarios/sweep.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/json_io.h"
#include "util/rng.h"

namespace {

using namespace bb;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// The alternating-renewal congestion process behind stream_synth, in slots
// (the defaults of `badabing_sim --stream`).
constexpr double kStreamMeanOnSlots = 20.0;
constexpr double kStreamMeanOffSlots = 180.0;
// Simulated slice for the sim.slice_ms percentiles.
constexpr TimeNs kSlice = seconds_i(1);
// Facts are compared across jobs for exact equality, so print every digit.
constexpr const char* kExact = "%.17g";

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Peak resident set of this process in KiB.  Linux keeps getrusage's
// ru_maxrss across execve, so a harness started from a large parent would
// report the parent's peak; VmHWM starts fresh with the new image.
long peak_rss_kb() {
    std::ifstream in{"/proc/self/status"};
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
    }
    return obs::process_stats().max_rss_kb;
}

// --- spans -------------------------------------------------------------------

// In-memory span recorder: layer, name, operation id, parent span, start and
// end.  A disabled tracer costs one branch per span.
class Tracer {
public:
    struct Span {
        const char* layer;
        const char* name;
        std::int64_t op;
        int parent;
        double t0;
        double t1;
    };

    class Scope {
    public:
        Scope(Tracer* t, const char* layer, const char* name, std::int64_t op) : t_{t} {
            if (t_ != nullptr) idx_ = t_->open(layer, name, op);
        }
        ~Scope() {
            if (t_ != nullptr) t_->close(idx_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* t_;
        int idx_{-1};
    };

    Tracer(bool on, Clock::time_point origin) : on_{on}, origin_{origin} {}

    [[nodiscard]] Scope span(const char* layer, const char* name, std::int64_t op = -1) {
        return Scope{on_ ? this : nullptr, layer, name, op};
    }
    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    // Total duration per "layer.name".
    [[nodiscard]] std::map<std::string, double> totals() const {
        std::map<std::string, double> out;
        for (const Span& s : spans_) out[std::string{s.layer} + "." + s.name] += s.t1 - s.t0;
        return out;
    }
    // Self time per layer: each span's duration minus what its children cover.
    [[nodiscard]] std::map<std::string, double> self_times() const {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span& s : spans_) {
            if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            out[spans_[i].layer] += spans_[i].t1 - spans_[i].t0 - child[i];
        }
        return out;
    }

private:
    int open(const char* layer, const char* name, std::int64_t op) {
        spans_.push_back(Span{layer, name, op, current_, now(), 0.0});
        current_ = static_cast<int>(spans_.size() - 1);
        return current_;
    }
    void close(int idx) {
        Span& s = spans_[static_cast<std::size_t>(idx)];
        s.t1 = now();
        current_ = s.parent;
    }
    [[nodiscard]] double now() const {
        return std::chrono::duration<double>(Clock::now() - origin_).count();
    }

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    int current_{-1};
};

// --- jobs --------------------------------------------------------------------

struct Mode {
    const char* name{"plain"};
    bool traced{false};
    bool hashed{false};
    bool obs_off{false};
    std::size_t workers{2};  // cbr_sweep's replica pool
};

struct Ctx {
    std::string workload;
    std::string spec_path;
    std::string spec_text;
    std::uint64_t seed{1};
    std::string work_dir;
    Clock::time_point origin{Clock::now()};
};

// One job: the workload's spec run once with master seed `seed`, the seed
// of input number `input` of this run.
struct Job {
    std::string config;
    std::size_t input;
    std::uint64_t seed;
    double wall_s{0.0};   // the whole job
    double setup_s{0.0};  // spec load/expand + world construction
    double run_s{0.0};    // inside Experiment::run / the stream loop / the cold pass
    double sim_s{0.0};    // simulated seconds covered
    JsonWriter ops;       // per-operation deterministic facts
    std::vector<double> slice_ms;
    std::vector<std::uint64_t> digests;  // per replica / stream, when hashed
    std::uint64_t hash_records{0};
    std::string extra;  // workload-specific JSON object, or empty
    Tracer tracer;

    Job(const Mode& m, std::size_t input_index, std::uint64_t master_seed,
        Clock::time_point origin)
        : config{m.name}, input{input_index}, seed{master_seed}, tracer{m.traced, origin} {
        ops.begin_array();
    }
};

// Installs a run-state hasher on this thread for one operation, as the
// replica workers do (DESIGN.md §14).
class OpHasher {
public:
    OpHasher(bool on, Job& job) : job_{&job} {
        if (on) {
            hasher_.emplace();
            scope_.emplace(*hasher_);
        }
    }
    ~OpHasher() {
        scope_.reset();
        if (hasher_) {
            job_->digests.push_back(hasher_->digest());
            job_->hash_records += hasher_->records();
        }
    }
    OpHasher(const OpHasher&) = delete;
    OpHasher& operator=(const OpHasher&) = delete;

private:
    Job* job_;
    std::optional<core::RunHasher> hasher_;
    std::optional<core::HashScope> scope_;
};

scenarios::ScenarioSpec load_spec(const Ctx& ctx, std::uint64_t seed) {
    scenarios::SpecResult r = scenarios::load_scenario_spec_text(ctx.spec_text, ctx.spec_path);
    if (!r.ok) throw std::runtime_error{r.error};
    r.spec.seed = seed;
    r.spec.workload.seed = seed;
    return std::move(r.spec);
}

// The spec of replica `seed`, derived exactly as ReplicaRunner derives it.
scenarios::ScenarioSpec replica_spec(const scenarios::ScenarioSpec& base, std::uint64_t seed) {
    scenarios::ScenarioSpec s = base;
    s.workload.seed = seed;
    s.testbed.seed = seed ^ 0x5EEDULL;
    return s;
}

// One replica, built through the spec factory and driven step by step:
// build, run (in fixed simulated slices when traced), truth, analyze.
scenarios::ReplicaResult run_replica(const scenarios::ScenarioSpec& base, std::size_t index,
                                     std::uint64_t seed, const Mode& m, Job& job) {
    Tracer& tr = job.tracer;
    const auto op = static_cast<std::int64_t>(index);
    const auto replica_span = tr.span("scenarios", "replica", op);
    const OpHasher hasher{m.hashed, job};
    const scenarios::ScenarioSpec spec = replica_spec(base, seed);

    const auto t_build = Clock::now();
    scenarios::BuiltExperiment built;
    {
        const auto s = tr.span("scenarios", "build", op);
        built = scenarios::build_experiment(spec);
    }
    job.setup_s += seconds_since(t_build);
    scenarios::Experiment& exp = *built.experiment;
    const probes::BadabingTool& tool = *built.badabing;
    sim::Scheduler& sched = exp.testbed().sched();

    const auto t_run = Clock::now();
    {
        const auto s = tr.span("sim", "run", op);
        if (m.traced) {
            for (TimeNs t = kSlice; t <= spec.workload.duration; t += kSlice) {
                const auto t_slice = Clock::now();
                sched.run_until(t);
                job.slice_ms.push_back(seconds_since(t_slice) * 1e3);
            }
        }
        exp.run();
    }
    job.run_s += seconds_since(t_run);
    job.sim_s += spec.workload.duration.to_seconds();

    scenarios::ReplicaResult r;
    r.index = index;
    r.seed = seed;
    {
        const auto s = tr.span("measure", "truth", op);
        r.truth = exp.truth();
    }
    {
        const auto s = tr.span("core", "analyze", op);
        r.result = tool.analyze(scenarios::marking_for(spec), spec.estimator);
    }
    r.offered_load = tool.offered_load_fraction(spec.testbed.bottleneck_rate_bps);

    const sim::QueueBase& q = exp.testbed().bottleneck();
    const bool transmitting =
        q.queueing_delay() > transmission_time(q.queue_bytes(), q.rate_bps());
    std::uint64_t segments = 0, retransmits = 0, timeouts = 0;
    for (const auto& flow : exp.workload().tcp_flows()) {
        segments += flow->sender().segments_sent();
        retransmits += flow->sender().retransmits();
        timeouts += flow->sender().timeouts();
    }
    const traffic::WebSessionGenerator* web = exp.workload().web();
    const auto& d = r.result.duration_basic;

    JsonWriter& w = job.ops;
    w.begin_object_inline();
    w.key("kind").value("replica");
    w.key("seed").value_uint(seed);
    w.key("f").value_double(r.truth.frequency, kExact);
    w.key("f_hat").value_double(r.result.frequency.value, kExact);
    w.key("d_s").value_double(r.truth.mean_duration_s, kExact);
    w.key("d_valid").value(d.valid);
    w.key("d_hat_s").value_double(d.valid ? d.seconds(tool.slot_width()) : 0.0, kExact);
    w.key("episodes").value_uint(r.truth.episodes);
    w.key("events").value_uint(sched.executed_events());
    w.key("cancelled").value_uint(sched.cancelled_events());
    w.key("scheduled").value_uint(sched.executed_events() + sched.cancelled_events() +
                                  sched.live_events());
    w.key("arena_slots").value_uint(sched.arena_slots());
    w.key("pool_slots").value_uint(sched.packet_pool().capacity());
    w.key("arrivals").value_uint(q.arrivals());
    w.key("departures").value_uint(q.departures());
    w.key("drops").value_uint(q.drops());
    w.key("queued").value_uint(q.queue_packets() + (transmitting ? 1U : 0U));
    w.key("max_delay_ms")
        .value_double(transmission_time(q.max_queue_bytes(), q.rate_bps()).to_millis(), kExact);
    w.key("tcp_segments").value_uint(segments);
    w.key("tcp_retransmits").value_uint(retransmits);
    w.key("tcp_timeouts").value_uint(timeouts);
    w.key("web_sessions").value_uint(web != nullptr ? web->sessions_started() : 0);
    w.key("web_objects_started").value_uint(web != nullptr ? web->objects_started() : 0);
    w.key("web_objects_completed").value_uint(web != nullptr ? web->objects_completed() : 0);
    w.key("departures_logged").value_uint(exp.monitor().departures().size());
    w.key("probes_sent").value_uint(tool.probes_sent());
    w.key("probes_designed").value_uint(tool.design().probe_slots.size());
    w.key("packets_sent").value_uint(r.result.packets_sent);
    w.key("packets_lost").value_uint(r.result.packets_lost);
    w.key("offered_load").value_double(r.offered_load, kExact);
    w.end_object();
    return r;
}

// tcp_longlived / web_shortflows: the spec's replicas, run serially, then
// aggregated into the bootstrap CI row as `badabing_sim --replicas` does.
void replica_job(const Ctx& ctx, const Mode& m, Job& job) {
    scenarios::ScenarioSpec spec;
    {
        const auto t = Clock::now();
        const auto s = job.tracer.span("scenarios", "spec_parse");
        spec = load_spec(ctx, job.seed);
        job.setup_s += seconds_since(t);
    }
    const auto seeds = scenarios::ReplicaRunner::replica_seeds(spec.seed, spec.replicas);
    std::vector<scenarios::ReplicaResult> results;
    results.reserve(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        results.push_back(run_replica(spec, i, seeds[i], m, job));
    }
    const auto s = job.tracer.span("core", "aggregate");
    const scenarios::ReplicaRunner runner{scenarios::runner_config_from(spec)};
    (void)runner.aggregate(scenarios::replica_plan_from(spec), results);
}

// --- cbr_sweep ---------------------------------------------------------------

// Process-wide obs counters the sweep's replica workers increment; the
// harness reads them around a pass because SweepRunner keeps its replicas.
struct CounterSnap {
    std::uint64_t probes_sent, arrivals, departures, drops;

    static CounterSnap read() {
        return CounterSnap{obs::counter("probes.badabing.probes_sent").value(),
                           obs::counter("sim.queue.arrivals").value(),
                           obs::counter("sim.queue.departures").value(),
                           obs::counter("sim.queue.drops").value()};
    }
};

std::vector<scenarios::SweepCell> load_sweep(const Ctx& ctx, std::uint64_t seed,
                                            std::string& name) {
    scenarios::SweepParseResult parsed =
        scenarios::load_sweep_spec_text(ctx.spec_text, ctx.spec_path);
    if (!parsed.ok) throw std::runtime_error{parsed.error};
    JsonValue v;
    v.kind = JsonValue::Kind::number;
    v.number_is_int = true;
    v.int_value = static_cast<std::int64_t>(seed);
    v.number_value = static_cast<double>(seed);
    std::string err;
    if (!json_set_path(parsed.sweep.base, "run.seed", v, err)) {
        throw std::runtime_error{ctx.spec_path + ": run.seed: " + err};
    }
    scenarios::ExpandResult grid = scenarios::expand_sweep(parsed.sweep, ctx.spec_path);
    if (!grid.ok) throw std::runtime_error{grid.error};
    name = parsed.sweep.name;
    return std::move(grid.cells);
}

std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

double number_at(const JsonValue& v, const char* key) {
    const JsonValue* x = v.find(key);
    if (x == nullptr || !x->is_number()) {
        throw std::runtime_error{std::string{"cell result: missing number \""} + key + "\""};
    }
    return x->number_value;
}

// cbr_sweep: a cold pass of the Table 4 grid into an empty cache, then a warm
// re-run over the same cache, as two `bb_sweep run --state-hash` calls do.
void sweep_job(const Ctx& ctx, const Mode& m, Job& job) {
    Tracer& tr = job.tracer;
    std::string name;
    std::vector<scenarios::SweepCell> cells;
    {
        const auto t = Clock::now();
        const auto s = tr.span("scenarios", "spec_parse");
        cells = load_sweep(ctx, job.seed, name);
        job.setup_s += seconds_since(t);
    }
    // World construction (Experiment + add_badabing with its pre-drawn
    // design) for every replica the pass will run; the designed probe count
    // is what the pass must send.
    std::uint64_t designed = 0;
    {
        const auto t = Clock::now();
        const auto s = tr.span("scenarios", "build");
        for (const auto& cell : cells) {
            for (const std::uint64_t seed :
                 scenarios::ReplicaRunner::replica_seeds(cell.spec.seed, cell.spec.replicas)) {
                const auto built = scenarios::build_experiment(replica_spec(cell.spec, seed));
                designed += built.badabing->design().probe_slots.size();
                job.sim_s += cell.spec.workload.duration.to_seconds();
            }
        }
        job.setup_s += seconds_since(t);
    }

    const std::string dir = ctx.work_dir + "/" + job.config + std::to_string(job.input);
    std::error_code ec;
    fs::remove_all(dir, ec);
    auto pass = [&](const char* label) {
        scenarios::SweepRunner::Config rc;
        rc.out_dir = dir + "/" + label;
        rc.cache_dir = dir + "/cache";
        rc.threads = m.workers;
        rc.state_hash = m.hashed;
        scenarios::SweepRunner runner{std::move(rc)};
        auto out = runner.run(name, cells);
        if (!out.ok) throw std::runtime_error{"sweep " + std::string{label} + ": " + out.error};
        return out;
    };

    const CounterSnap before = CounterSnap::read();
    const auto t_cold = Clock::now();
    scenarios::SweepRunner::RunOutcome cold;
    {
        const auto s = tr.span("scenarios", "sweep.cold");
        cold = pass("cold");
    }
    const double cold_s = seconds_since(t_cold);
    const CounterSnap after = CounterSnap::read();
    const auto t_warm = Clock::now();
    scenarios::SweepRunner::RunOutcome warm;
    {
        const auto s = tr.span("scenarios", "sweep.warm");
        warm = pass("warm");
    }
    const double warm_s = seconds_since(t_warm);
    job.run_s = cold_s;

    JsonWriter cw;
    cw.begin_array();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& c = cold.cells[i];
        const std::string file = name + "-" + c.config_hash + ".json";
        cw.begin_object_inline();
        cw.key("config_hash").value(c.config_hash);
        cw.key("cold_cached").value(c.cached);
        cw.key("warm_cached").value(warm.cells[i].cached);
        cw.key("cold_doc").value(fnv1a64_hex(slurp(dir + "/cold/" + file)));
        cw.key("warm_doc").value(fnv1a64_hex(slurp(dir + "/warm/" + file)));
        cw.key("digest").value(c.hashed ? core::RunHasher::hex(c.state_hash) : "");
        cw.end_object();

        const JsonValue* reps = c.result.find("replicas");
        if (reps == nullptr || !reps->is_array()) {
            throw std::runtime_error{"cell result " + c.config_hash + ": no replicas"};
        }
        for (const JsonValue& rep : reps->items) {
            const double d_hat = number_at(rep, "est_duration_s");
            JsonWriter& w = job.ops;
            w.begin_object_inline();
            w.key("kind").value("sweep_replica");
            w.key("cell").value_uint(i);
            w.key("f").value_double(number_at(rep, "true_frequency"), kExact);
            w.key("f_hat").value_double(number_at(rep, "est_frequency"), kExact);
            w.key("d_s").value_double(number_at(rep, "true_duration_s"), kExact);
            // The cell document writes an invalid duration estimate as 0.
            w.key("d_valid").value(d_hat != 0.0);
            w.key("d_hat_s").value_double(d_hat, kExact);
            w.key("episodes").value_uint(static_cast<std::uint64_t>(number_at(rep, "episodes")));
            w.end_object();
        }
    }
    cw.end_array();
    fs::remove_all(dir, ec);

    JsonWriter x;
    x.begin_object();
    x.key("cells").value_raw(cw.take());
    x.key("probes_designed").value_uint(designed);
    x.key("cold_s").value_double(cold_s, kExact);
    x.key("warm_s").value_double(warm_s, kExact);
    x.key("warm_cached").value_uint(warm.cached);
    x.key("merged_digest")
        .value(m.hashed ? core::RunHasher::hex(cold.merged_state_hash) : "");
    x.key("counters").begin_object_inline();
    x.key("probes_sent").value_uint(after.probes_sent - before.probes_sent);
    x.key("arrivals").value_uint(after.arrivals - before.arrivals);
    x.key("departures").value_uint(after.departures - before.departures);
    x.key("drops").value_uint(after.drops - before.drops);
    x.end_object();
    x.end_object();
    job.extra = x.take();
}

// Traced runs of cbr_sweep only: every replica of the grid again, driven
// directly under spans so sim/measure/core time can be attributed.  Hashed
// like the sweep, so its per-cell digests must equal the cold pass's.
void sweep_attribution_job(const Ctx& ctx, const Mode& m, Job& job) {
    std::string name;
    const std::vector<scenarios::SweepCell> cells = load_sweep(ctx, job.seed, name);
    JsonWriter cw;
    cw.begin_object();
    cw.key("cell_digests").begin_array();
    for (const auto& cell : cells) {
        const auto seeds =
            scenarios::ReplicaRunner::replica_seeds(cell.spec.seed, cell.spec.replicas);
        const std::size_t first_digest = job.digests.size();
        std::vector<scenarios::ReplicaResult> results;
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            results.push_back(run_replica(cell.spec, i, seeds[i], m, job));
        }
        {
            const auto s = job.tracer.span("core", "aggregate");
            const scenarios::ReplicaRunner runner{scenarios::runner_config_from(cell.spec)};
            (void)runner.aggregate(scenarios::replica_plan_from(cell.spec), results);
        }
        const std::vector<std::uint64_t> cell_digests(
            job.digests.begin() + static_cast<std::ptrdiff_t>(first_digest), job.digests.end());
        cw.value(core::RunHasher::hex(core::RunHasher::merge(cell_digests)));
    }
    cw.end_array();
    cw.end_object();
    job.extra = cw.take();
}

// --- stream_synth ------------------------------------------------------------

// stream_synth: the `--stream` pipeline, SyntheticSeriesGen ->
// StreamingExperimentScorer -> StreamingAnalyzer, one independent stream per
// spec replica, each covering the spec's duration in slots.
void stream_job(const Ctx& ctx, const Mode& m, Job& job) {
    Tracer& tr = job.tracer;
    scenarios::ScenarioSpec spec;
    {
        const auto t = Clock::now();
        const auto s = tr.span("scenarios", "spec_parse");
        spec = load_spec(ctx, job.seed);
        job.setup_s += seconds_since(t);
    }
    const TimeNs slot = spec.badabing.slot_width;
    const std::int64_t slots = spec.workload.duration / slot;
    core::ProbeProcessConfig pcfg;
    pcfg.p = spec.badabing.p;
    pcfg.improved = spec.badabing.improved;
    pcfg.extended_fraction = spec.badabing.extended_fraction;
    const auto seeds = scenarios::ReplicaRunner::replica_seeds(spec.seed, spec.replicas);
    std::vector<std::uint8_t> states;
    for (std::size_t j = 0; j < seeds.size(); ++j) {
        const auto op = static_cast<std::int64_t>(j);
        const auto stream_span = tr.span("core", "stream_run", op);
        const OpHasher hasher{m.hashed, job};
        const auto t_build = Clock::now();
        std::optional<core::SyntheticSeriesGen> gen;
        core::SeriesTruthAccumulator truth;
        std::optional<core::StreamingAnalyzer> analyzer;
        std::optional<core::StreamingExperimentScorer> scorer;
        {
            const auto s = tr.span("core", "build", op);
            gen.emplace(Rng{seeds[j] ^ 0x5EED5ULL}, kStreamMeanOnSlots, kStreamMeanOffSlots);
            analyzer.emplace(spec.estimator);
            scorer.emplace(Rng{seeds[j] ^ 0xBADA0ULL}, pcfg, *analyzer);
        }
        job.setup_s += seconds_since(t_build);

        const auto t_run = Clock::now();
        if (m.traced) {
            // Staged so the generator and the scorer + estimators are timed
            // apart; the slot sequence is the same either way.
            states.resize(static_cast<std::size_t>(slots));
            {
                const auto s = tr.span("core", "synth", op);
                for (auto& c : states) {
                    c = gen->next() ? 1 : 0;
                    truth.consume(c != 0);
                }
            }
            const auto s = tr.span("core", "stream", op);
            for (const std::uint8_t c : states) scorer->step(c != 0);
        } else {
            for (std::int64_t k = 0; k < slots; ++k) {
                const bool c = gen->next();
                truth.consume(c);
                scorer->step(c);
            }
        }
        job.run_s += seconds_since(t_run);
        job.sim_s += static_cast<double>(slots) * slot.to_seconds();

        core::SeriesTruth t;
        core::StreamingAnalyzer::Result res;
        {
            const auto s = tr.span("core", "analyze", op);
            t = truth.finalize();
            res = analyzer->finalize();
        }
        const double slot_s = slot.to_seconds();
        JsonWriter& w = job.ops;
        w.begin_object_inline();
        w.key("kind").value("stream");
        w.key("seed").value_uint(seeds[j]);
        w.key("slots").value_int(slots);
        w.key("f").value_double(t.frequency, kExact);
        w.key("f_hat").value_double(res.frequency.value, kExact);
        w.key("d_s").value_double(t.mean_duration_slots * slot_s, kExact);
        w.key("d_valid").value(res.duration_basic.valid);
        w.key("d_hat_s")
            .value_double(res.duration_basic.valid ? res.duration_basic.slots * slot_s : 0.0,
                          kExact);
        w.key("episodes").value_uint(t.episodes);
        w.key("reports").value_uint(res.reports);
        w.key("experiments_started").value_uint(scorer->experiments_started());
        w.key("experiments_completed").value_uint(scorer->experiments_completed());
        w.key("experiments_pending").value_int(scorer->experiments_pending());
        w.end_object();
    }
}

// --- report ------------------------------------------------------------------

void write_job(JsonWriter& w, Job& job) {
    w.begin_object();
    w.key("config").value(job.config);
    w.key("input").value_uint(job.input);
    w.key("seed").value_uint(job.seed);
    w.key("wall_s").value_double(job.wall_s, kExact);
    w.key("setup_s").value_double(job.setup_s, kExact);
    w.key("run_s").value_double(job.run_s, kExact);
    w.key("sim_s").value_double(job.sim_s, kExact);
    if (!job.digests.empty()) {
        w.key("digest").value(core::RunHasher::hex(core::RunHasher::merge(job.digests)));
        w.key("hash_records").value_uint(job.hash_records);
    }
    if (!job.slice_ms.empty()) {
        w.key("slice_ms").begin_array_inline();
        for (const double v : job.slice_ms) w.value_double(v);
        w.end_array();
    }
    if (!job.tracer.spans().empty()) {
        w.key("span_s").begin_object_inline();
        for (const auto& [k, v] : job.tracer.totals()) w.key(k).value_double(v);
        w.end_object();
        w.key("self_s").begin_object_inline();
        for (const auto& [k, v] : job.tracer.self_times()) w.key(k).value_double(v);
        w.end_object();
    }
    if (!job.extra.empty()) w.key("extra").value_raw(job.extra);
    job.ops.end_array();
    w.key("ops").value_raw(job.ops.take());
    w.end_object();
}

// Chrome trace_event JSON of every traced job's spans (one tid per job).
std::string chrome_trace(const std::vector<Job>& jobs) {
    JsonWriter w;
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        for (const auto& s : jobs[j].tracer.spans()) {
            w.begin_object_inline();
            w.key("name").value(std::string{s.layer} + "." + s.name);
            w.key("cat").value(s.layer);
            w.key("ph").value("X");
            w.key("ts").value_double(s.t0 * 1e6, "%.3f");
            w.key("dur").value_double((s.t1 - s.t0) * 1e6, "%.3f");
            w.key("pid").value_int(1);
            w.key("tid").value_uint(j);
            w.key("args").begin_object_inline();
            w.key("job").value(jobs[j].config);
            w.key("op").value_int(s.op);
            w.end_object();
            w.end_object();
        }
    }
    w.end_array();
    w.end_object();
    return w.take() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
    FlagSet flags{"perfbench_harness", "run one perfbench workload and print a JSON report"};
    const auto* workload = flags.add_string(
        "workload", "", "tcp_longlived | web_shortflows | cbr_sweep | stream_synth");
    const auto* spec_path = flags.add_string("spec", "", "the workload's spec FILE");
    const auto* seed = flags.add_int("seed", 1, "workload seed");
    const auto* seconds = flags.add_double("seconds", 10.0, "measure for this many seconds");
    const auto* trace = flags.add_int("trace", 0, "1 = traced per-layer run");
    const auto* min_jobs = flags.add_int(
        "min-jobs", 1, "run at least this many jobs (rounds when traced), whatever --seconds");
    const auto* work_dir = flags.add_string("work-dir", ".bench_out/work",
                                            "scratch DIR for sweep caches");
    const auto* trace_out =
        flags.add_string("trace-out", "", "write the spans as Chrome trace JSON to FILE");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 2;

    Ctx ctx;
    ctx.workload = *workload;
    ctx.spec_path = *spec_path;
    ctx.seed = static_cast<std::uint64_t>(*seed);
    ctx.work_dir = *work_dir;
    if (ctx.seed > (1ULL << 62)) {
        std::fprintf(stderr, "perfbench_harness: --seed must be in [0, 2^62]\n");
        return 2;
    }
    {
        std::ifstream in{ctx.spec_path, std::ios::binary};
        if (!in) {
            std::fprintf(stderr, "perfbench_harness: cannot read --spec '%s'\n",
                         ctx.spec_path.c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        ctx.spec_text = ss.str();
    }

    const bool traced_run = *trace != 0;
    const bool sweep = ctx.workload == "cbr_sweep";
    void (*fn)(const Ctx&, const Mode&, Job&) = nullptr;
    if (ctx.workload == "tcp_longlived" || ctx.workload == "web_shortflows") {
        fn = replica_job;
    } else if (sweep) {
        fn = sweep_job;
    } else if (ctx.workload == "stream_synth") {
        fn = stream_job;
    } else {
        std::fprintf(stderr, "perfbench_harness: unknown --workload '%s'\n", ctx.workload.c_str());
        return 2;
    }

    // The end-to-end job: cbr_sweep hashes every computed cell and runs its
    // replicas on two workers; everything else is single-threaded, unhashed.
    const Mode plain{"plain", false, sweep, false, 2};
    std::vector<Mode> modes{plain};
    if (traced_run) {
        Mode traced = plain;
        traced.name = "traced";
        traced.traced = true;
        Mode obs_off = plain;
        obs_off.name = "obs_off";
        obs_off.obs_off = true;
        Mode hash_flip = plain;
        hash_flip.name = sweep ? "unhashed" : "hashed";
        hash_flip.hashed = !plain.hashed;
        modes = {plain, traced, obs_off, hash_flip};
        if (sweep) {
            Mode one = plain;
            one.name = "one_worker";
            one.workers = 1;
            modes.push_back(one);
        }
    }

    // Input k of a run is the spec under master seed input_seed(k): a pure
    // function of (--seed, k), 53 bits so it stays exact in JSON.  A traced
    // run feeds input k to every configuration of round k.
    Rng seeder{ctx.seed};
    std::vector<std::uint64_t> input_seeds;
    auto input_seed = [&](std::size_t k) {
        while (input_seeds.size() <= k) {
            input_seeds.push_back(seeder.fork_seed(input_seeds.size()) >> 11);
        }
        return input_seeds[k];
    };

    const bool obs_default = obs::enabled();
    std::vector<Job> jobs;
    // Sampled once the first --min-jobs rounds are done, so the peak covers
    // the same inputs in every run of a seed, however fast the host is.
    long peak_kb = 0;
    const auto t0 = Clock::now();
    try {
        std::size_t k = 0;
        do {
            if (k == static_cast<std::size_t>(*min_jobs)) peak_kb = peak_rss_kb();
            // Odd rounds run the configurations in reverse, so a host that
            // speeds up or slows down during a round biases no ratio.
            std::vector<Mode> order = modes;
            if (k % 2 == 1) std::reverse(order.begin(), order.end());
            for (const Mode& m : order) {
                obs::set_enabled(obs_default && !m.obs_off);
                jobs.emplace_back(m, k, input_seed(k), ctx.origin);
                Job& job = jobs.back();
                const auto t_job = Clock::now();
                fn(ctx, m, job);
                job.wall_s = seconds_since(t_job);
            }
            ++k;
        } while (k < static_cast<std::size_t>(*min_jobs) || seconds_since(t0) < *seconds);
        if (peak_kb == 0) peak_kb = peak_rss_kb();
        obs::set_enabled(obs_default);
        if (traced_run && sweep) {
            Mode attribution = plain;
            attribution.name = "attribution";
            attribution.traced = true;
            jobs.emplace_back(attribution, 0, input_seed(0), ctx.origin);
            Job& job = jobs.back();
            const auto t_job = Clock::now();
            sweep_attribution_job(ctx, attribution, job);
            job.wall_s = seconds_since(t_job);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
    const double elapsed = seconds_since(t0);

    JsonWriter w;
    w.begin_object();
    w.key("schema").value("perfbench.harness.v1");
    w.key("workload").value(ctx.workload);
    w.key("seed").value_uint(ctx.seed);
    w.key("trace").value(traced_run);
    w.key("seconds").value_double(*seconds);
    w.key("min_jobs").value_int(*min_jobs);
    w.key("elapsed_s").value_double(elapsed, kExact);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("compiler").value(PERFBENCH_COMPILER);
    w.key("obs_enabled").value(obs_default);
    w.key("peak_rss_kb").value_int(peak_kb);
    w.key("jobs").begin_array();
    for (Job& job : jobs) write_job(w, job);
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.take().c_str());

    if (!trace_out->empty() && !write_text_file(*trace_out, chrome_trace(jobs))) {
        std::fprintf(stderr, "perfbench_harness: cannot write %s\n", trace_out->c_str());
        return 1;
    }
    return 0;
}

#include "scenarios/spec.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>


namespace bb::scenarios {

namespace {

// Shared parse state: the first failure wins and parsing short-circuits.
struct Ctx {
    std::string source;
    std::string error;

    [[nodiscard]] bool ok() const noexcept { return error.empty(); }

    // A top-level diagnostic has no key path: "<source>:<line>: <message>".
    void fail(int line, const std::string& path, const std::string& message) {
        if (!error.empty()) return;
        error = source + ":" + std::to_string(line) + ": " +
                (path.empty() ? "" : path + ": ") + message;
    }
};

// One JSON object section.  Getters mark keys consumed; finish() turns any
// leftover key into an "unknown key" diagnostic with its source line.
class Section {
public:
    Section(Ctx& ctx, const JsonValue* v, std::string path, int parent_line)
        : ctx_{&ctx}, v_{v}, path_{std::move(path)}, line_{parent_line} {
        if (v_ != nullptr) {
            line_ = v_->line;
            if (!v_->is_object()) {
                ctx_->fail(v_->line, path_, "must be an object");
                v_ = nullptr;
            }
        }
        if (v_ != nullptr) consumed_.assign(v_->members.size(), false);
    }

    [[nodiscard]] bool present() const noexcept { return v_ != nullptr; }
    [[nodiscard]] int line() const noexcept { return line_; }

    // Nested section (absent -> defaults).
    [[nodiscard]] const JsonValue* get(const char* key) {
        if (v_ == nullptr) return nullptr;
        for (std::size_t i = 0; i < v_->members.size(); ++i) {
            if (v_->members[i].first == key) {
                consumed_[i] = true;
                return &v_->members[i].second;
            }
        }
        return nullptr;
    }

    void number(const char* key, double& out, double lo, double hi,
                bool lo_exclusive = false) {
        const JsonValue* j = get(key);
        if (j == nullptr || !ctx_->ok()) return;
        if (!j->is_number()) {
            ctx_->fail(j->line, key_path(key), "must be a number");
            return;
        }
        const double v = j->number_value;
        if (!std::isfinite(v) || v < lo || v > hi || (lo_exclusive && v <= lo)) {
            char range[96];
            std::snprintf(range, sizeof range, "must be in %c%.6g, %.6g]",
                          lo_exclusive ? '(' : '[', lo, hi);
            ctx_->fail(j->line, key_path(key), range);
            return;
        }
        out = v;
    }

    void integer(const char* key, std::int64_t& out, std::int64_t lo, std::int64_t hi) {
        const JsonValue* j = get(key);
        if (j == nullptr || !ctx_->ok()) return;
        if (!j->is_number() || !j->number_is_int) {
            ctx_->fail(j->line, key_path(key), "must be an integer");
            return;
        }
        if (j->int_value < lo || j->int_value > hi) {
            ctx_->fail(j->line, key_path(key),
                       "must be between " + std::to_string(lo) + " and " +
                           std::to_string(hi));
            return;
        }
        out = j->int_value;
    }

    void boolean(const char* key, bool& out) {
        const JsonValue* j = get(key);
        if (j == nullptr || !ctx_->ok()) return;
        if (!j->is_bool()) {
            ctx_->fail(j->line, key_path(key), "must be true or false");
            return;
        }
        out = j->bool_value;
    }

    void string(const char* key, std::string& out) {
        const JsonValue* j = get(key);
        if (j == nullptr || !ctx_->ok()) return;
        if (!j->is_string()) {
            ctx_->fail(j->line, key_path(key), "must be a string");
            return;
        }
        out = j->string_value;
    }

    // Durations: integers take the exact-unit constructors, other numbers
    // round to the nearest nanosecond.  `min_exclusive` demands > 0.
    void time_units(const char* key, TimeNs& out, std::int64_t ns_per_unit,
                    bool min_exclusive, const char* unit_name) {
        const JsonValue* j = get(key);
        if (j == nullptr || !ctx_->ok()) return;
        if (!j->is_number() || j->number_value < 0.0 || !std::isfinite(j->number_value)) {
            ctx_->fail(j->line, key_path(key),
                       std::string{"must be a non-negative number of "} + unit_name);
            return;
        }
        TimeNs t = j->number_is_int
                       ? nanoseconds(j->int_value * ns_per_unit)
                       : nanoseconds(static_cast<std::int64_t>(
                             std::llround(j->number_value *
                                          static_cast<double>(ns_per_unit))));
        if (min_exclusive && t <= TimeNs::zero()) {
            ctx_->fail(j->line, key_path(key), "must be > 0");
            return;
        }
        out = t;
    }
    void time_s(const char* key, TimeNs& out, bool min_exclusive = false) {
        time_units(key, out, 1'000'000'000, min_exclusive, "seconds");
    }
    void time_ms(const char* key, TimeNs& out, bool min_exclusive = false) {
        time_units(key, out, 1'000'000, min_exclusive, "milliseconds");
    }
    void time_us(const char* key, TimeNs& out, bool min_exclusive = false) {
        time_units(key, out, 1'000, min_exclusive, "microseconds");
    }

    // Pick one spelling from a closed vocabulary.
    template <typename Enum>
    void one_of(const char* key, Enum& out,
                const std::vector<std::pair<const char*, Enum>>& vocab) {
        const JsonValue* j = get(key);
        if (j == nullptr || !ctx_->ok()) return;
        if (j->is_string()) {
            for (const auto& [spelling, v] : vocab) {
                if (j->string_value == spelling) {
                    out = v;
                    return;
                }
            }
        }
        std::string allowed = "must be one of ";
        for (std::size_t i = 0; i < vocab.size(); ++i) {
            allowed += i > 0 ? ", \"" : "\"";
            allowed += vocab[i].first;
            allowed += '"';
        }
        ctx_->fail(j->line, key_path(key), allowed);
    }

    // Call after all gets: any unconsumed member is an unknown key.
    void finish() {
        if (v_ == nullptr || !ctx_->ok()) return;
        for (std::size_t i = 0; i < v_->members.size(); ++i) {
            if (!consumed_[i]) {
                ctx_->fail(v_->members[i].second.line, path_,
                           "unknown key \"" + v_->members[i].first + "\"");
                return;
            }
        }
    }

    [[nodiscard]] std::string key_path(const char* key) const {
        return path_.empty() ? std::string{key} : path_ + "." + key;
    }

    Ctx* ctx_;  // public-ish access for composed parsers below

private:
    const JsonValue* v_;
    std::string path_;
    int line_{1};
    std::vector<bool> consumed_;
};

const std::vector<std::pair<const char*, QueueDiscipline>>& discipline_vocab() {
    static const std::vector<std::pair<const char*, QueueDiscipline>> v{
        {"drop_tail", QueueDiscipline::drop_tail},
        {"red", QueueDiscipline::red},
        {"pie", QueueDiscipline::pie},
        {"codel", QueueDiscipline::codel},
    };
    return v;
}

const std::vector<std::pair<const char*, TrafficKind>>& traffic_vocab() {
    static const std::vector<std::pair<const char*, TrafficKind>> v{
        {"infinite_tcp", TrafficKind::infinite_tcp},
        {"cbr_uniform", TrafficKind::cbr_uniform},
        {"cbr_multi", TrafficKind::cbr_multi},
        {"web", TrafficKind::web},
    };
    return v;
}

const std::vector<std::pair<const char*, ScenarioSpec::ProbeTool>>& tool_vocab() {
    static const std::vector<std::pair<const char*, ScenarioSpec::ProbeTool>> v{
        {"badabing", ScenarioSpec::ProbeTool::badabing},
        {"zing", ScenarioSpec::ProbeTool::zing},
        {"sting", ScenarioSpec::ProbeTool::sting},
        {"none", ScenarioSpec::ProbeTool::none},
    };
    return v;
}

void parse_link(Ctx& ctx, Section& top, ScenarioSpec& spec) {
    Section link{ctx, top.get("link"), "link", top.line()};
    TestbedConfig& tb = spec.testbed;

    double rate_mbps = static_cast<double>(tb.bottleneck_rate_bps) / 1e6;
    link.number("rate_mbps", rate_mbps, 0.0, 100'000.0, /*lo_exclusive=*/true);
    tb.bottleneck_rate_bps = static_cast<std::int64_t>(std::llround(rate_mbps * 1e6));

    link.time_ms("delay_ms", tb.prop_delay);
    link.time_ms("buffer_ms", tb.buffer_time, /*min_exclusive=*/true);
    link.one_of("discipline", tb.discipline, discipline_vocab());

    Section red{ctx, link.get("red"), "link.red", link.line()};
    red.number("min_threshold", tb.red.min_threshold, 0.0, 1.0);
    red.number("max_threshold", tb.red.max_threshold, 0.0, 1.0);
    red.number("max_drop_probability", tb.red.max_drop_probability, 0.0, 1.0);
    red.number("weight", tb.red.weight, 0.0, 1.0, /*lo_exclusive=*/true);
    red.boolean("ecn", tb.red.ecn);
    red.finish();
    if (ctx.ok() && tb.red.min_threshold > tb.red.max_threshold) {
        ctx.fail(red.line(), "link.red.min_threshold",
                 "must not exceed link.red.max_threshold");
    }

    Section pie{ctx, link.get("pie"), "link.pie", link.line()};
    pie.time_ms("target_delay_ms", tb.pie.target_delay, /*min_exclusive=*/true);
    pie.time_ms("update_interval_ms", tb.pie.update_interval, /*min_exclusive=*/true);
    pie.number("alpha", tb.pie.alpha, 0.0, 16.0, /*lo_exclusive=*/true);
    pie.number("beta", tb.pie.beta, 0.0, 16.0);
    pie.time_ms("burst_allowance_ms", tb.pie.burst_allowance);
    pie.boolean("ecn", tb.pie.ecn);
    pie.number("ecn_mark_ceiling", tb.pie.ecn_mark_ceiling, 0.0, 1.0);
    pie.finish();

    Section codel{ctx, link.get("codel"), "link.codel", link.line()};
    codel.time_ms("target_ms", tb.codel.target, /*min_exclusive=*/true);
    codel.time_ms("interval_ms", tb.codel.interval, /*min_exclusive=*/true);
    codel.boolean("ecn", tb.codel.ecn);
    codel.finish();

    Section ge{ctx, link.get("ge"), "link.ge", link.line()};
    ge.boolean("enabled", tb.ge_enabled);
    ge.number("p_good_loss", tb.ge.p_good_loss, 0.0, 1.0);
    ge.number("p_bad_loss", tb.ge.p_bad_loss, 0.0, 1.0);
    ge.time_s("mean_good_s", tb.ge.mean_good, /*min_exclusive=*/true);
    ge.time_ms("mean_bad_ms", tb.ge.mean_bad, /*min_exclusive=*/true);
    ge.time_ms("extra_delay_ms", tb.ge.extra_delay);
    ge.finish();

    std::int64_t qbit = tb.qbit_block;
    link.integer("qbit_block", qbit, 0, 1'000'000'000);
    tb.qbit_block = static_cast<std::uint32_t>(qbit);

    std::int64_t hops = tb.extra_hops;
    link.integer("extra_hops", hops, 0, 16);
    tb.extra_hops = static_cast<int>(hops);
    link.number("extra_hop_rate_factor", tb.extra_hop_rate_factor, 0.0, 1024.0,
                /*lo_exclusive=*/true);
    link.finish();
}

void parse_traffic(Ctx& ctx, Section& top, ScenarioSpec& spec) {
    Section tr{ctx, top.get("traffic"), "traffic", top.line()};
    WorkloadConfig& wl = spec.workload;

    tr.one_of("kind", wl.kind, traffic_vocab());
    tr.time_s("duration_s", wl.duration, /*min_exclusive=*/true);

    std::int64_t flows = wl.tcp_flows;
    tr.integer("tcp_flows", flows, 0, 100'000);
    wl.tcp_flows = static_cast<int>(flows);
    tr.integer("tcp_rwnd_segments", wl.tcp_rwnd_segments, 1, 1'000'000);
    tr.boolean("tcp_ecn", wl.tcp_ecn);

    tr.number("cbr_background_load", wl.cbr_background_load, 0.0, 1.0);
    tr.time_ms("episode_ms", wl.episode_duration, /*min_exclusive=*/true);
    if (const JsonValue* list = tr.get("episode_ms_list"); list != nullptr && ctx.ok()) {
        if (!list->is_array()) {
            ctx.fail(list->line, "traffic.episode_ms_list", "must be an array of numbers");
        } else {
            wl.episode_durations.clear();
            for (const JsonValue& item : list->items) {
                if (!item.is_number() || item.number_value <= 0.0) {
                    ctx.fail(item.line, "traffic.episode_ms_list",
                             "entries must be positive numbers of milliseconds");
                    break;
                }
                wl.episode_durations.push_back(
                    item.number_is_int
                        ? milliseconds(item.int_value)
                        : nanoseconds(static_cast<std::int64_t>(
                              std::llround(item.number_value * 1e6))));
            }
        }
    }
    tr.time_s("mean_episode_gap_s", wl.mean_episode_gap, /*min_exclusive=*/true);

    tr.number("web_session_rate_per_s", wl.web_session_rate_per_s, 0.0, 1e6,
              /*lo_exclusive=*/true);
    tr.number("web_objects_per_session", wl.web_objects_per_session, 0.0, 1e6,
              /*lo_exclusive=*/true);
    tr.number("web_pareto_alpha", wl.web_pareto_alpha, 0.0, 64.0, /*lo_exclusive=*/true);
    tr.number("web_object_min_bytes", wl.web_object_min_bytes, 0.0, 1e12,
              /*lo_exclusive=*/true);
    tr.time_ms("web_think_time_ms", wl.web_think_time);
    tr.finish();
}

void parse_probe(Ctx& ctx, Section& top, ScenarioSpec& spec) {
    Section probe{ctx, top.get("probe"), "probe", top.line()};
    probe.one_of("tool", spec.tool, tool_vocab());
    probe.boolean("streaming", spec.streaming);
    if (ctx.ok() && spec.streaming && spec.tool != ScenarioSpec::ProbeTool::badabing) {
        ctx.fail(probe.get("streaming")->line, "probe.streaming",
                 std::string{"scores the BADABING design; probe.tool is \""} +
                     to_string(spec.tool) + "\"");
    }

    Section bb_sec{ctx, probe.get("badabing"), "probe.badabing", probe.line()};
    probes::BadabingConfig& bc = spec.badabing;
    bb_sec.number("p", bc.p, 0.0, 1.0, /*lo_exclusive=*/true);
    bb_sec.time_ms("slot_ms", bc.slot_width, /*min_exclusive=*/true);
    bb_sec.boolean("improved", bc.improved);
    bb_sec.number("extended_fraction", bc.extended_fraction, 0.0, 1.0);
    std::int64_t ppp = bc.packets_per_probe;
    bb_sec.integer("packets_per_probe", ppp, 1, 64);
    bc.packets_per_probe = static_cast<int>(ppp);
    std::int64_t pbytes = bc.packet_bytes;
    bb_sec.integer("packet_bytes", pbytes, 1, 65'535);
    bc.packet_bytes = static_cast<std::int32_t>(pbytes);
    bb_sec.time_us("intra_probe_gap_us", bc.intra_probe_gap);
    std::int64_t slots = static_cast<std::int64_t>(bc.total_slots);
    // 0 = size the design to the workload window (the benches' convention).
    bb_sec.integer("total_slots", slots, 0, 1'000'000'000);
    bc.total_slots = static_cast<core::SlotIndex>(slots);
    bb_sec.boolean("ecn_probes", bc.ecn_probes);
    bb_sec.time_ms("receiver_clock_offset_ms", bc.receiver_clock_offset);
    bb_sec.number("receiver_clock_skew_ppm", bc.receiver_clock_skew_ppm, -1e6, 1e6);
    bb_sec.finish();
    // A probe's train must end within its slot (probes::ProbeTrain).
    if (ctx.ok() && bc.intra_probe_gap * (bc.packets_per_probe - 1) >= bc.slot_width) {
        ctx.fail(bb_sec.line(), "probe.badabing.intra_probe_gap_us",
                 "(packets_per_probe - 1) x intra_probe_gap_us must be shorter than slot_ms");
    }

    Section zing{ctx, probe.get("zing"), "probe.zing", probe.line()};
    zing.time_ms("mean_interval_ms", spec.zing.mean_interval, /*min_exclusive=*/true);
    std::int64_t zbytes = spec.zing.packet_bytes;
    zing.integer("packet_bytes", zbytes, 1, 65'535);
    spec.zing.packet_bytes = static_cast<std::int32_t>(zbytes);
    std::int64_t flight = spec.zing.packets_per_flight;
    zing.integer("packets_per_flight", flight, 1, 64);
    spec.zing.packets_per_flight = static_cast<int>(flight);
    zing.finish();

    Section sting{ctx, probe.get("sting"), "probe.sting", probe.line()};
    std::int64_t segs = spec.sting.burst_segments;
    sting.integer("burst_segments", segs, 1, 100'000);
    spec.sting.burst_segments = static_cast<int>(segs);
    sting.time_ms("seed_spacing_ms", spec.sting.seed_spacing, /*min_exclusive=*/true);
    sting.time_s("burst_interval_s", spec.sting.burst_interval, /*min_exclusive=*/true);
    sting.time_ms("retransmit_timeout_ms", spec.sting.retransmit_timeout,
                  /*min_exclusive=*/true);
    sting.number("rto_jitter", spec.sting.rto_jitter, 0.0, 1.0);
    std::int64_t sbytes = spec.sting.segment_bytes;
    sting.integer("segment_bytes", sbytes, 1, 65'535);
    spec.sting.segment_bytes = static_cast<std::int32_t>(sbytes);
    sting.finish();

    probe.finish();
}

void parse_truth(Ctx& ctx, Section& top, ScenarioSpec& spec) {
    Section truth{ctx, top.get("truth"), "truth", top.line()};
    truth.time_ms("slot_ms", spec.truth.slot_width, /*min_exclusive=*/true);
    truth.time_ms("episode_gap_ms", spec.truth.episode_gap, /*min_exclusive=*/true);
    truth.boolean("delay_based", spec.truth.delay_based);
    // The floor only means something to the delay-based rule; accepting it
    // elsewhere would split the cache key of one run.
    if (const JsonValue* floor = truth.get("delay_floor_ms");
        floor != nullptr && !spec.truth.delay_based) {
        ctx.fail(floor->line, "truth.delay_floor_ms", "requires \"delay_based\": true");
        return;
    }
    truth.time_ms("delay_floor_ms", spec.truth.delay_floor);
    truth.finish();
}

void parse_analysis(Ctx& ctx, Section& top, ScenarioSpec& spec) {
    Section an{ctx, top.get("analysis"), "analysis", top.line()};
    if (const JsonValue* a = an.get("alpha"); a != nullptr && ctx.ok()) {
        if (!a->is_number() || a->number_value <= 0.0 || a->number_value >= 1.0) {
            ctx.fail(a->line, "analysis.alpha", "must be in (0, 1)");
        } else {
            spec.marking_alpha = a->number_value;
        }
    }
    if (const JsonValue* t = an.get("tau_ms"); t != nullptr && ctx.ok()) {
        if (!t->is_number() || t->number_value <= 0.0) {
            ctx.fail(t->line, "analysis.tau_ms", "must be > 0");
        } else {
            spec.marking_tau = t->number_is_int
                                   ? milliseconds(t->int_value)
                                   : nanoseconds(static_cast<std::int64_t>(
                                         std::llround(t->number_value * 1e6)));
        }
    }
    an.boolean("frequency_from_extended", spec.estimator.frequency_from_extended);
    an.boolean("pairs_from_extended", spec.estimator.pairs_from_extended);
    an.finish();
}

void parse_run(Ctx& ctx, Section& top, ScenarioSpec& spec) {
    Section run{ctx, top.get("run"), "run", top.line()};
    std::int64_t replicas = static_cast<std::int64_t>(spec.replicas);
    run.integer("replicas", replicas, 1, 100'000);
    spec.replicas = static_cast<std::size_t>(replicas);
    std::int64_t threads = static_cast<std::int64_t>(spec.threads);
    run.integer("threads", threads, 0, 4096);
    spec.threads = static_cast<std::size_t>(threads);
    std::int64_t seed = static_cast<std::int64_t>(spec.seed);
    run.integer("seed", seed, 0, std::numeric_limits<std::int64_t>::max());
    spec.seed = static_cast<std::uint64_t>(seed);
    run.finish();
}

}  // namespace

const char* to_string(QueueDiscipline d) noexcept {
    switch (d) {
        case QueueDiscipline::drop_tail: return "drop_tail";
        case QueueDiscipline::red: return "red";
        case QueueDiscipline::pie: return "pie";
        case QueueDiscipline::codel: return "codel";
    }
    return "?";
}

const char* to_string(TrafficKind k) noexcept {
    switch (k) {
        case TrafficKind::infinite_tcp: return "infinite_tcp";
        case TrafficKind::cbr_uniform: return "cbr_uniform";
        case TrafficKind::cbr_multi: return "cbr_multi";
        case TrafficKind::web: return "web";
    }
    return "?";
}

const char* to_string(ScenarioSpec::ProbeTool t) noexcept {
    switch (t) {
        case ScenarioSpec::ProbeTool::badabing: return "badabing";
        case ScenarioSpec::ProbeTool::zing: return "zing";
        case ScenarioSpec::ProbeTool::sting: return "sting";
        case ScenarioSpec::ProbeTool::none: return "none";
    }
    return "?";
}

SpecResult parse_scenario_spec(const JsonValue& doc, std::string_view source) {
    SpecResult out;
    Ctx ctx;
    ctx.source = std::string{source};
    if (!doc.is_object()) {
        ctx.fail(doc.line, "spec", "top level must be a JSON object");
        out.error = ctx.error;
        return out;
    }

    // A sweep file handed to a single-scenario reader: name the right tool
    // instead of reporting "base" as an unknown key.
    if (const JsonValue* base = doc.find("base"); base != nullptr) {
        ctx.fail(base->line, "",
                 "this is a sweep spec (it has a \"base\" section); run it with bb sweep");
        out.error = ctx.error;
        return out;
    }

    ScenarioSpec& spec = out.spec;
    // DSL default: size the probe design to the workload window (the struct
    // default of 180'000 slots belongs to the paper's fixed 900 s runs).
    spec.badabing.total_slots = 0;

    Section top{ctx, &doc, "", 1};
    top.string("name", spec.name);
    {
        // Every run is built on the dumbbell; the key may only say so.
        int dumbbell = 0;
        top.one_of("topology", dumbbell, {{"dumbbell", 0}});
    }
    parse_link(ctx, top, spec);
    parse_traffic(ctx, top, spec);
    parse_probe(ctx, top, spec);
    parse_truth(ctx, top, spec);
    parse_analysis(ctx, top, spec);
    parse_run(ctx, top, spec);
    top.finish();

    if (!ctx.ok()) {
        out.error = ctx.error;
        return out;
    }

    if (spec.name.empty()) spec.name = "scenario";
    // The run seed is the workload master seed, exactly as the hand-wired
    // benches pass bench_seed() into WorkloadConfig::seed.
    spec.workload.seed = spec.seed;
    out.ok = true;
    return out;
}

SpecResult load_scenario_spec_text(std::string_view text, std::string_view source) {
    const JsonParse parsed = json_parse(text, source);
    if (!parsed.ok) {
        SpecResult out;
        out.error = parsed.error;
        return out;
    }
    return parse_scenario_spec(parsed.value, source);
}

SpecResult load_scenario_spec_file(const std::string& path) {
    const JsonParse parsed = json_parse_file(path);
    if (!parsed.ok) {
        SpecResult out;
        out.error = parsed.error;
        return out;
    }
    SpecResult out = parse_scenario_spec(parsed.value, path);
    if (out.ok && out.spec.name == "scenario") out.spec.name = file_stem_or(path, "scenario");
    return out;
}

std::string file_stem_or(std::string_view path, std::string_view fallback) {
    if (const auto slash = path.find_last_of("/\\"); slash != std::string_view::npos) {
        path.remove_prefix(slash + 1);
    }
    if (const auto dot = path.rfind('.'); dot != std::string_view::npos && dot > 0) {
        path = path.substr(0, dot);
    }
    return std::string{path.empty() ? fallback : path};
}

std::unique_ptr<Testbed> build_testbed(const ScenarioSpec& spec) {
    return std::make_unique<Testbed>(spec.testbed);
}

BuiltExperiment build_experiment(const ScenarioSpec& spec) {
    BuiltExperiment built;
    built.experiment =
        std::make_unique<Experiment>(spec.testbed, spec.workload, spec.truth);
    switch (spec.tool) {
        case ScenarioSpec::ProbeTool::badabing:
            built.badabing = &built.experiment->add_badabing(spec.badabing);
            break;
        case ScenarioSpec::ProbeTool::zing:
            built.zing = &built.experiment->add_zing(spec.zing);
            break;
        case ScenarioSpec::ProbeTool::sting:
            built.sting = &built.experiment->add_sting(spec.sting);
            break;
        case ScenarioSpec::ProbeTool::none:
            break;
    }
    return built;
}

core::MarkingConfig marking_for(const ScenarioSpec& spec) {
    core::MarkingConfig m;
    m.tau = spec.marking_tau ? *spec.marking_tau
                             : tau_for_probe_rate(spec.badabing.p, spec.truth.slot_width);
    m.alpha = spec.marking_alpha ? *spec.marking_alpha
                                 : alpha_for_probe_rate(spec.badabing.p);
    return m;
}

}  // namespace bb::scenarios

#include "scenarios/sweep.h"

// Wall-clock timing below feeds the progress display only; it never
// reaches result files or the hash chain.
#include <chrono>  // bb-det: allow(no-time-seed)
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "util/json_io.h"

namespace bb::scenarios {

namespace {

// Render a scalar axis value the way it appears in the cell's "axes" object.
std::string render_scalar(const JsonValue& v) {
    switch (v.kind) {
        case JsonValue::Kind::null_v: return "null";
        case JsonValue::Kind::bool_v: return v.bool_value ? "true" : "false";
        case JsonValue::Kind::number: {
            char buf[40];
            if (v.number_is_int) {
                std::snprintf(buf, sizeof buf, "%lld",
                              static_cast<long long>(v.int_value));
            } else {
                std::snprintf(buf, sizeof buf, "%.17g", v.number_value);
            }
            return buf;
        }
        case JsonValue::Kind::string: return v.string_value;
        default: return "?";
    }
}

// "link.ge" conflicts with "link.ge.enabled": splicing the shorter path
// would silently overwrite the longer one's target.
bool paths_overlap(const std::string& a, const std::string& b) {
    if (a == b) return true;
    const std::string& shorter = a.size() < b.size() ? a : b;
    const std::string& longer = a.size() < b.size() ? b : a;
    return longer.size() > shorter.size() && longer.compare(0, shorter.size(), shorter) == 0 &&
           longer[shorter.size()] == '.';
}

std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

}  // namespace

SweepParseResult parse_sweep_spec(const JsonValue& doc, std::string_view source) {
    SweepParseResult out;
    const std::string src{source};
    auto fail = [&](int line, const std::string& path, const std::string& msg) {
        out.error = src + ":" + std::to_string(line) + ": " + path + ": " + msg;
    };

    if (!doc.is_object()) {
        fail(doc.line, "sweep", "top level must be a JSON object");
        return out;
    }

    const JsonValue* base = nullptr;
    const JsonValue* axes = nullptr;
    for (const auto& [key, value] : doc.members) {
        if (key == "name") {
            if (!value.is_string()) {
                fail(value.line, "name", "must be a string");
                return out;
            }
            out.sweep.name = value.string_value;
        } else if (key == "base") {
            base = &value;
        } else if (key == "axes") {
            axes = &value;
        } else {
            fail(value.line, "sweep", "unknown key \"" + key + "\"");
            return out;
        }
    }

    if (base == nullptr) {
        fail(doc.line, "base", "missing (the unexpanded scenario document)");
        return out;
    }
    if (!base->is_object()) {
        fail(base->line, "base", "must be a scenario spec object");
        return out;
    }
    out.sweep.base = *base;

    if (axes != nullptr) {
        if (!axes->is_object()) {
            fail(axes->line, "axes", "must be an object of path -> value list");
            return out;
        }
        for (const auto& [path, values] : axes->members) {
            SweepAxis axis;
            axis.path = path;
            axis.line = values.line;
            if (!values.is_array()) {
                fail(values.line, "axes." + path, "must be an array of scalar values");
                return out;
            }
            if (values.items.empty()) {
                fail(values.line, "axes." + path,
                     "conflicting axis: empty value list expands to zero cells");
                return out;
            }
            for (const JsonValue& v : values.items) {
                if (v.is_array() || v.is_object()) {
                    fail(v.line, "axes." + path,
                         "axis values must be scalars (string, number, or bool)");
                    return out;
                }
                axis.values.push_back(v);
            }
            // Duplicate axis paths are rejected by the JSON parser (duplicate
            // object keys); overlap with an existing axis is checked here.
            for (const SweepAxis& prior : out.sweep.axes) {
                if (paths_overlap(prior.path, axis.path)) {
                    fail(values.line, "axes." + path,
                         "conflicting axis: overlaps \"" + prior.path + "\"");
                    return out;
                }
            }
            out.sweep.axes.push_back(std::move(axis));
        }
    }

    if (out.sweep.name.empty()) out.sweep.name = "sweep";
    out.ok = true;
    return out;
}

SweepParseResult load_sweep_spec_text(std::string_view text, std::string_view source) {
    const JsonParse parsed = json_parse(text, source);
    if (!parsed.ok) {
        SweepParseResult out;
        out.error = parsed.error;
        return out;
    }
    return parse_sweep_spec(parsed.value, source);
}

SweepParseResult load_sweep_spec_file(const std::string& path) {
    JsonParse parsed = json_parse_file(path);
    SweepParseResult out;
    if (!parsed.ok) {
        out.error = parsed.error;
        return out;
    }
    if (parsed.value.is_object() && parsed.value.find("base") == nullptr) {
        // A plain scenario spec: a sweep of one cell with no axes.
        out.sweep.base = std::move(parsed.value);
        out.ok = true;
    } else {
        out = parse_sweep_spec(parsed.value, path);
    }
    if (out.ok && (out.sweep.name.empty() || out.sweep.name == "sweep")) {
        out.sweep.name = file_stem_or(path, "sweep");
    }
    return out;
}

ExpandResult expand_sweep(const SweepSpec& sweep, std::string_view source) {
    ExpandResult out;

    std::size_t total = 1;
    for (const SweepAxis& axis : sweep.axes) total *= axis.values.size();

    std::vector<std::size_t> odometer(sweep.axes.size(), 0);
    for (std::size_t index = 0; index < total; ++index) {
        SweepCell cell;
        cell.index = index;
        cell.doc = sweep.base;  // deep copy
        for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
            const SweepAxis& axis = sweep.axes[a];
            const JsonValue& value = axis.values[odometer[a]];
            std::string err;
            if (!json_set_path(cell.doc, axis.path, value, err)) {
                out.error = std::string{source} + ":" + std::to_string(axis.line) +
                            ": axes." + axis.path + ": " + err;
                return out;
            }
            cell.axis_values.emplace_back(axis.path, render_scalar(value));
        }

        SpecResult parsed = parse_scenario_spec(cell.doc, source);
        if (!parsed.ok) {
            out.error = parsed.error;
            return out;
        }
        cell.spec = std::move(parsed.spec);
        cell.config_hash = fnv1a64_hex(json_canonical(cell.doc));
        out.cells.push_back(std::move(cell));

        // Advance the odometer: LAST axis spins fastest (first axis outermost).
        for (std::size_t a = sweep.axes.size(); a-- > 0;) {
            if (++odometer[a] < sweep.axes[a].values.size()) break;
            odometer[a] = 0;
        }
    }
    out.ok = true;
    return out;
}

namespace {

// True when `doc` is an object whose member `key` is the string `want`.
bool string_member_is(const JsonValue& doc, const char* key, std::string_view want) {
    const JsonValue* v = doc.find(key);
    return v != nullptr && v->is_string() && v->string_value == want;
}

// A cached series document counts only if it parses and carries the cell's
// config hash (mirrors the result-file validation above it).
bool series_cache_valid(const std::string& path, const std::string& config_hash) {
    if (!std::filesystem::exists(path)) return false;
    const JsonParse parsed = json_parse_file(path);
    return parsed.ok && string_member_is(parsed.value, "config_hash", config_hash);
}

// The cell's canonical document without its top-level "analysis" object.
// Cells with equal keys differ only in how the probe outcomes are analysed,
// so one simulation per replica serves all of them.
std::string simulation_key(const JsonValue& doc) {
    JsonValue sim = doc;
    std::erase_if(sim.members, [](const auto& m) { return m.first == "analysis"; });
    return json_canonical(sim);
}

}  // namespace

SweepRunner::RunOutcome SweepRunner::run(const std::string& sweep_name,
                                         const std::vector<SweepCell>& cells) {
    RunOutcome out;
    namespace fs = std::filesystem;
    auto refuse = [&out](const SweepCell& cell, const std::string& why) {
        out.error = "cell " + std::to_string(cell.index) + " (" + cell.config_hash + "): " + why;
        return out;
    };
    for (const SweepCell& cell : cells) {
        if (!cell.spec.streaming) continue;
        if (stream_slots(replica_plan_from(cell.spec)) < 1) {
            return refuse(cell,
                          "probe.streaming needs at least one slot (probe.badabing.total_slots, "
                          "or traffic.duration_s of at least one slot_ms)");
        }
        if (cfg_.recording.enabled) {
            return refuse(cell,
                          "probe.streaming: a synthetic stream has no sim-time series to record");
        }
    }
    auto cache_path = [this](const SweepCell& cell, const char* suffix) {
        return cfg_.cache_dir.empty() ? std::string{}
                                      : cfg_.cache_dir + "/" + cell.config_hash + suffix;
    };

    // Cache pass: every cell is looked up before anything simulates, so a
    // group knows which of its members still need an analysis.
    const std::size_t n = cells.size();
    out.cells.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SweepCell& cell = cells[i];
        CellOutcome& oc = out.cells[i];
        oc.index = cell.index;
        oc.config_hash = cell.config_hash;
        const std::string path = cache_path(cell, ".json");
        if (path.empty() || !fs::exists(path)) continue;
        JsonParse cached = json_parse_file(path);
        // A stale, foreign-format or corrupt cache entry is not an error:
        // recompute.
        if (!cached.ok || !string_member_is(cached.value, "schema", cell_schema()) ||
            !string_member_is(cached.value, "config_hash", cell.config_hash)) {
            continue;
        }
        // With recording on, the series file is part of the cell: a result
        // without one is a miss and the cell recomputes.
        const std::string series_path = cache_path(cell, ".series.json");
        if (cfg_.recording.enabled && !series_cache_valid(series_path, cell.config_hash)) {
            continue;
        }
        oc.cached = true;
        oc.result = std::move(cached.value);
    }
    // A probe log comes from the first computed cell, which must have one.
    if (cfg_.probe_log) {
        for (std::size_t i = 0; i < n; ++i) {
            if (out.cells[i].cached) continue;
            const ScenarioSpec& spec = cells[i].spec;
            if (spec.tool != ScenarioSpec::ProbeTool::badabing || spec.streaming) {
                return refuse(cells[i], std::string{"only a simulated BADABING cell has a "
                                                    "probe trace and design; probe.tool is \""} +
                                            to_string(spec.tool) +
                                            (spec.streaming ? "\", probe.streaming" : "\""));
            }
            break;
        }
    }

    std::error_code ec;
    if (!cfg_.out_dir.empty()) fs::create_directories(cfg_.out_dir, ec);
    if (!cfg_.cache_dir.empty()) fs::create_directories(cfg_.cache_dir, ec);
    const std::string series_dir =
        cfg_.series_dir.empty() ? cfg_.out_dir : cfg_.series_dir;
    if (cfg_.recording.enabled && !series_dir.empty()) {
        fs::create_directories(series_dir, ec);
    }
    // A finished cell's result (and series) documents, into out_dir/series_dir.
    auto publish = [&](const SweepCell& cell, const std::string& text,
                       const std::string& series_text) {
        if (!cfg_.out_dir.empty() && !text.empty()) {
            write_text_file(cfg_.out_dir + "/" + sweep_name + "-" + cell.config_hash + ".json",
                            text);
        }
        if (!series_dir.empty() && !series_text.empty()) {
            write_text_file(
                series_dir + "/" + sweep_name + "-" + cell.config_hash + ".series.json",
                series_text);
        }
    };

    // Group the misses by simulation key, in cell order.
    std::vector<std::vector<std::size_t>> groups;
    std::vector<std::size_t> group_of(n, 0);
    {
        std::map<std::string, std::size_t> by_key;
        for (std::size_t i = 0; i < n; ++i) {
            if (out.cells[i].cached) continue;
            const auto [it, added] =
                by_key.try_emplace(simulation_key(cells[i].doc), groups.size());
            if (added) groups.emplace_back();
            groups[it->second].push_back(i);
            group_of[i] = it->second;
        }
    }

    // One simulation per replica for the whole group, one analysis per member.
    auto simulate = [&](const std::vector<std::size_t>& members) {
        const ScenarioSpec& spec = cells[members.front()].spec;
        ReplicaPlan plan = replica_plan_from(spec);
        plan.recording = cfg_.recording;
        plan.hashing = cfg_.state_hash;
        // The trace ring and the probe log ride on replica 0 of the first
        // computed cell.
        if (plan.hashing && out.hash_trace == nullptr) {
            plan.hash_trace_capacity = cfg_.hash_trace_capacity;
        }
        plan.probe_log = cfg_.probe_log && out.probe_log == nullptr;
        std::vector<ReplicaAnalysis> analyses;
        analyses.reserve(members.size());
        for (const std::size_t m : members) {
            analyses.push_back(replica_plan_from(cells[m].spec).analysis);
        }
        ReplicaRunner::Config rc = runner_config_from(spec);
        if (cfg_.threads != 0) rc.threads = cfg_.threads;
        const ReplicaRunner runner{rc};
        const auto results = runner.run(plan, analyses);
        ++out.simulated;

        for (std::size_t a = 0; a < members.size(); ++a) {
            const std::size_t i = members[a];
            const SweepCell& cell = cells[i];
            const std::vector<ReplicaResult>& replicas = results[a];
            CellOutcome& oc = out.cells[i];
            if (plan.probe_log && out.probe_log == nullptr && !replicas.empty()) {
                out.probe_log = replicas[0].probe_log;
            }
            if (plan.hashing) {
                oc.hashed = true;
                oc.state_hash = ReplicaRunner::merged_state_hash(replicas);
                if (out.hash_trace == nullptr && !replicas.empty()) {
                    out.hash_trace = replicas[0].hash_trace;
                }
            }
            const AggregateRow row = runner.aggregate(plan, replicas);
            const std::string text =
                cell_result_json(cell, row, replicas, cell.spec.badabing.slot_width);
            const std::string path = cache_path(cell, ".json");
            oc.result = json_parse(text, path.empty() ? "<cell>" : path).value;
            if (!path.empty()) write_text_file(path, text);
            std::string series_text;
            if (cfg_.recording.enabled && !replicas.empty() && replicas[0].series) {
                series_text = replicas[0].series->json(cell.config_hash);
                const std::string series_path = cache_path(cell, ".series.json");
                if (!series_path.empty()) write_text_file(series_path, series_text);
            }
            publish(cell, text, series_text);
        }
    };

    ProgressTracker tracker{n};
    for (std::size_t i = 0; i < n; ++i) {
        const SweepCell& cell = cells[i];
        CellOutcome& oc = out.cells[i];
        // bb-det: allow(no-time-seed) — per-cell wall time, progress display only
        const auto cell_t0 = std::chrono::steady_clock::now();
        // A group simulates, and publishes every member, when its first
        // member comes up.
        if (oc.cached) {
            publish(cell, slurp(cache_path(cell, ".json")),
                    cfg_.recording.enabled ? slurp(cache_path(cell, ".series.json")) : "");
        } else if (groups[group_of[i]].front() == i) {
            simulate(groups[group_of[i]]);
        }
        out.computed += oc.cached ? 0 : 1;
        out.cached += oc.cached ? 1 : 0;
        out.hashed_cells += oc.hashed ? 1 : 0;

        const double cell_s =  // bb-det: allow(no-time-seed) — progress display only
            std::chrono::duration<double>(std::chrono::steady_clock::now() - cell_t0)
                .count();
        const SweepProgress p = tracker.on_cell(cell.config_hash, oc.cached, cell_s);
        if (cfg_.progress) cfg_.progress(p);
    }
    if (!cfg_.out_dir.empty()) {
        write_text_file(cfg_.out_dir + "/" + sweep_name + ".csv", summary_csv(cells, out.cells));
    }
    if (cfg_.state_hash) {
        std::vector<std::uint64_t> digests;
        digests.reserve(out.cells.size());
        for (const auto& c : out.cells) {
            if (c.hashed) digests.push_back(c.state_hash);
        }
        out.merged_state_hash = core::RunHasher::merge(digests);
    }
    out.ok = true;
    return out;
}

}  // namespace bb::scenarios

#include <algorithm>
#include <cstdio>

#include "scenarios/sweep.h"
#include "util/json_io.h"

// The sweep's outputs, each derived from the metric list: the cell document,
// its format tag, the summary CSV and the `bb sweep` table.
namespace bb::scenarios {

namespace {

// A cell document's aggregate value at `path` ("p", a metric's key for its
// mean, "<key>.ci_lo"), or nothing for a null.
std::optional<double> aggregate_value(const JsonValue& doc, const std::string& path) {
    const JsonValue* v = json_get_path(doc, "aggregate." + path);
    if (v != nullptr && v->is_object()) v = v->find("mean");
    return v != nullptr && v->is_number() ? std::optional{v->number_value} : std::nullopt;
}

std::string csv_field(const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string quoted = "\"";
    for (const char c : s) quoted += c == '"' ? std::string{"\"\""} : std::string{c};
    return quoted + "\"";
}

}  // namespace

std::string cell_schema(std::span<const Metric> list) {
    // Only the metrics are hashed: renaming a fixed key (schema ... axes, p,
    // replicas, replica, seed, the stat fields) must also change this.
    std::string keys;
    for (const Metric& m : list) {
        keys += std::string{m.key} + ":" + std::to_string(static_cast<int>(m.kind)) +
                std::to_string(static_cast<int>(m.output)) +
                (m.only ? to_string(*m.only) : "") + ",";
    }
    return "bb.cell." + fnv1a64_hex(keys);
}

std::string cell_result_json(const SweepCell& cell, const AggregateRow& row,
                             const std::vector<ReplicaResult>& replicas,
                             TimeNs slot_width) {
    JsonWriter w{JsonWriter::Options{.indent = 2, .space_after_colon = true}};
    // %.17g everywhere: cached cells must round-trip to the same doubles.
    const char* fmt = "%.17g";
    w.begin_object();
    w.key("schema").value(cell_schema());
    w.key("config_hash").value(cell.config_hash);
    w.key("name").value(cell.spec.name);
    w.key("axes").begin_object_inline();
    for (const auto& [path, value] : cell.axis_values) w.key(path).value(value);
    w.end_object();

    // A number, or null for one that does not exist.
    auto number = [&](const char* key, bool valid, double v) {
        w.key(key);
        if (valid) {
            w.value_double(v, fmt);
        } else {
            w.value_null();
        }
    };
    w.key("aggregate").begin_object();
    number("p", cell.spec.tool == ScenarioSpec::ProbeTool::badabing, cell.spec.badabing.p);
    w.key("replicas").value_uint(replicas.size());
    for (const auto& [m, s] : row.stats) {
        const AggregateStat v = s.value_or(AggregateStat{});
        w.key(m->key).begin_object_inline();
        number("mean", s.has_value(), v.mean);
        number("stddev", s.has_value(), v.stddev);
        number("ci_lo", s.has_value(), v.ci.lo);
        number("ci_hi", s.has_value(), v.ci.hi);
        w.end_object();
    }
    w.end_object();

    w.key("replicas").begin_array();
    for (const ReplicaResult& r : replicas) {
        w.begin_object_inline();
        w.key("replica").value_uint(r.index);
        w.key("seed").value_uint(r.seed);
        for (const Metric& m : metrics()) {
            if (m.output == Metric::Output::aggregate || (m.only && r.tool != *m.only)) continue;
            const std::optional<double> v = m.value(r, slot_width);
            if (v && m.kind == Metric::Kind::count) {
                w.key(m.key).value_uint(static_cast<std::uint64_t>(*v));
            } else {
                number(m.key, v.has_value(), v.value_or(0.0));
            }
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take() + "\n";
}

std::string summary_csv(const std::vector<SweepCell>& cells,
                        const std::vector<SweepRunner::CellOutcome>& outcomes) {
    std::vector<std::string> columns{"p", "replicas"};
    for (const Metric& m : metrics()) {
        if (m.aggregated()) columns.emplace_back(m.key);
    }
    std::string out = "cell,config_hash";
    if (!cells.empty()) {
        for (const auto& axis : cells.front().axis_values) out += "," + csv_field(axis.first);
    }
    for (const std::string& column : columns) out += "," + column;
    out += "\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        out += std::to_string(outcomes[i].index) + "," + outcomes[i].config_hash;
        for (const auto& axis : cells[i].axis_values) out += "," + csv_field(axis.second);
        for (const std::string& column : columns) {
            // A null (an estimate the cell's tool does not make) stays empty.
            char buf[40] = ",";
            if (const auto v = aggregate_value(outcomes[i].result, column)) {
                std::snprintf(buf, sizeof buf, ",%.9g", *v);
            }
            out += buf;
        }
        out += "\n";
    }
    return out;
}

std::string summary_table(const std::vector<SweepCell>& cells,
                          const std::vector<SweepRunner::CellOutcome>& outcomes) {
    using Role = Metric::Role;
    std::vector<const Metric*> columns;
    std::vector<std::string> separators;  // " | " opens a column group
    std::vector<std::string> headers;
    for (const Metric& m : metrics()) {
        if (!m.aggregated()) continue;
        const bool estimate = m.role == Role::estimate;
        const bool paired = estimate && !columns.empty() && columns.back()->role == Role::truth;
        separators.emplace_back(paired ? " " : " | ");
        headers.push_back(m.key + std::string{estimate ? " [95% CI]" : ""});
        columns.push_back(&m);
    }
    char buf[128];
    std::snprintf(buf, sizeof buf, "%-5s %-16s %-8s", "cell", "hash", "state");
    std::string out = buf;
    for (std::size_t c = 0; c < columns.size(); ++c) out += separators[c] + headers[c];
    out += " |\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SweepRunner::CellOutcome& oc = outcomes[i];
        std::snprintf(buf, sizeof buf, "%-5zu %-16s %-8s", oc.index, oc.config_hash.c_str(),
                      oc.cached ? "cached" : "computed");
        out += buf;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            // Blank where the cell's tool makes no such estimate.
            const std::string key = columns[c]->key;
            const int digits = columns[c]->kind == Metric::Kind::seconds ? 3 : 4;
            std::string text;
            if (const auto mean = aggregate_value(oc.result, key)) {
                std::snprintf(buf, sizeof buf, "%.*f", digits, *mean);
                text = buf;
                if (columns[c]->role == Role::estimate) {
                    std::snprintf(buf, sizeof buf, " [%.*f,%.*f]", digits,
                                  aggregate_value(oc.result, key + ".ci_lo").value_or(0.0),
                                  digits, aggregate_value(oc.result, key + ".ci_hi").value_or(0.0));
                    text += buf;
                }
            }
            text.resize(std::max(text.size(), headers[c].size()), ' ');
            out += separators[c] + text;
        }
        out += " |";
        for (const auto& [path, value] : cells[i].axis_values) out += " " + path + "=" + value;
        out += "\n";
    }
    return out;
}

}  // namespace bb::scenarios

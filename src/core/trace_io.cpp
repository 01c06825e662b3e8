#include "core/trace_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bb::core {

namespace {

constexpr const char* kTraceMagic = "# badabing-trace v1";
constexpr const char* kDesignMagic = "# badabing-design v1";

std::vector<std::int64_t> split_ints(const std::string& line, std::size_t expected) {
    std::vector<std::int64_t> out;
    out.reserve(expected);
    const char* p = line.data();
    const char* end = line.data() + line.size();
    while (p < end) {
        std::int64_t v = 0;
        const auto [next, ec] = std::from_chars(p, end, v);
        if (ec != std::errc{}) {
            throw std::runtime_error{"trace_io: malformed numeric field in '" + line + "'"};
        }
        out.push_back(v);
        p = next;
        if (p < end) {
            if (*p != ',') {
                throw std::runtime_error{"trace_io: expected ',' in '" + line + "'"};
            }
            ++p;
        }
    }
    if (out.size() != expected) {
        throw std::runtime_error{"trace_io: expected " + std::to_string(expected) +
                                 " fields, got " + std::to_string(out.size()) + " in '" +
                                 line + "'"};
    }
    return out;
}

void expect_magic(std::istream& in, const char* magic) {
    std::string line;
    if (!std::getline(in, line) || line != magic) {
        throw std::runtime_error{std::string{"trace_io: missing header '"} + magic + "'"};
    }
    // Skip the column-name comment line.
    if (!std::getline(in, line)) {
        throw std::runtime_error{"trace_io: truncated file after header"};
    }
}

std::ifstream open_in(const std::string& path) {
    std::ifstream in{path};
    if (!in) throw std::runtime_error{"trace_io: cannot open '" + path + "' for reading"};
    return in;
}

std::ofstream open_out(const std::string& path) {
    std::ofstream out{path};
    if (!out) throw std::runtime_error{"trace_io: cannot open '" + path + "' for writing"};
    return out;
}

}  // namespace

void write_trace(std::ostream& out, const std::vector<ProbeOutcome>& probes) {
    out << kTraceMagic << '\n';
    out << "slot,send_time_ns,packets_sent,packets_lost,max_owd_ns,any_received\n";
    for (const auto& p : probes) {
        out << p.slot << ',' << p.send_time.ns() << ',' << p.packets_sent << ','
            << p.packets_lost << ',' << p.max_owd.ns() << ',' << (p.any_received ? 1 : 0)
            << '\n';
    }
}

std::vector<ProbeOutcome> read_trace(std::istream& in) {
    expect_magic(in, kTraceMagic);
    std::vector<ProbeOutcome> probes;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        const auto f = split_ints(line, 6);
        ProbeOutcome p;
        p.slot = f[0];
        p.send_time = TimeNs{f[1]};
        p.packets_sent = static_cast<int>(f[2]);
        p.packets_lost = static_cast<int>(f[3]);
        p.max_owd = TimeNs{f[4]};
        p.any_received = f[5] != 0;
        probes.push_back(p);
    }
    return probes;
}

void write_trace_file(const std::string& path, const std::vector<ProbeOutcome>& probes) {
    auto out = open_out(path);
    write_trace(out, probes);
}

std::vector<ProbeOutcome> read_trace_file(const std::string& path) {
    auto in = open_in(path);
    return read_trace(in);
}

void write_design(std::ostream& out, const std::vector<Experiment>& experiments) {
    out << kDesignMagic << '\n';
    out << "start_slot,kind\n";
    for (const auto& e : experiments) {
        out << e.start_slot << ',' << (e.kind == ExperimentKind::extended ? 1 : 0) << '\n';
    }
}

std::vector<Experiment> read_design(std::istream& in) {
    expect_magic(in, kDesignMagic);
    std::vector<Experiment> experiments;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        const auto f = split_ints(line, 2);
        Experiment e;
        e.start_slot = f[0];
        e.kind = f[1] != 0 ? ExperimentKind::extended : ExperimentKind::basic;
        experiments.push_back(e);
    }
    return experiments;
}

void write_design_file(const std::string& path, const std::vector<Experiment>& experiments) {
    auto out = open_out(path);
    write_design(out, experiments);
}

std::vector<Experiment> read_design_file(const std::string& path) {
    auto in = open_in(path);
    return read_design(in);
}

}  // namespace bb::core

#include "common.h"

#include <cstdio>
#include <cstdlib>

#include "scenarios/spec.h"

namespace bb::bench {

namespace {
std::int64_t env_int(const char* name, std::int64_t fallback) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::atoll(v) : fallback;
}

// Every bench preset is rendered as a scenario-DSL document (env overrides
// substituted into the text) and parsed by the same layer that serves
// bb sweep, so the benches and spec-driven runs cannot drift apart.
scenarios::ScenarioSpec parse_preset(const std::string& traffic_json) {
    char buf[1024];
    std::snprintf(buf, sizeof buf,
                  "{\"link\": {\"rate_mbps\": %lld}, \"traffic\": %s, "
                  "\"run\": {\"seed\": %lld}}",
                  static_cast<long long>(env_int("BB_BENCH_RATE_MBPS", 30)),
                  traffic_json.c_str(),
                  static_cast<long long>(env_int("BB_BENCH_SEED", 7)));
    auto res = scenarios::load_scenario_spec_text(buf, "<bench preset>");
    if (!res.ok) {
        std::fprintf(stderr, "bench preset rejected by scenario DSL: %s\n",
                     res.error.c_str());
        std::abort();
    }
    return res.spec;
}

std::string traffic_preset(const char* kind, const std::string& extra) {
    char buf[512];
    std::snprintf(buf, sizeof buf, "{\"kind\": \"%s\", \"duration_s\": %lld%s}", kind,
                  static_cast<long long>(env_int("BB_BENCH_DURATION_S", 900)),
                  extra.c_str());
    return buf;
}
}  // namespace

TimeNs bench_duration() { return seconds_i(env_int("BB_BENCH_DURATION_S", 900)); }

std::uint64_t bench_seed() {
    return static_cast<std::uint64_t>(env_int("BB_BENCH_SEED", 7));
}

scenarios::TestbedConfig bench_testbed() {
    return parse_preset(traffic_preset("cbr_uniform", "")).testbed;
}

scenarios::WorkloadConfig infinite_tcp_workload() {
    // 40 flows on OC3 ~= 10 flows at 30 Mb/s (same per-flow bottleneck share).
    const std::int64_t flows =
        env_int("BB_BENCH_TCP_FLOWS", 10 * env_int("BB_BENCH_RATE_MBPS", 30) / 30);
    char extra[96];
    std::snprintf(extra, sizeof extra, ", \"tcp_flows\": %lld",
                  static_cast<long long>(flows));
    return parse_preset(traffic_preset("infinite_tcp", extra)).workload;
}

scenarios::WorkloadConfig cbr_uniform_workload() {
    return parse_preset(traffic_preset(
                            "cbr_uniform", ", \"episode_ms\": 68, \"mean_episode_gap_s\": 10"))
        .workload;
}

scenarios::WorkloadConfig web_workload() {
    // Tuned so overload episodes appear roughly every 20 s (paper §4.2),
    // scaled with the bottleneck rate.
    const double rate_per_s =
        5.0 * static_cast<double>(env_int("BB_BENCH_RATE_MBPS", 30)) / 30.0;
    char extra[96];
    std::snprintf(extra, sizeof extra, ", \"web_session_rate_per_s\": %.17g", rate_per_s);
    return parse_preset(traffic_preset("web", extra)).workload;
}

scenarios::TruthConfig truth_for(const scenarios::WorkloadConfig& wl) {
    scenarios::TruthConfig tc;
    tc.delay_based = wl.kind == scenarios::TrafficKind::web;
    return tc;
}

void print_header(const std::string& title, const std::string& paper_ref) {
    std::printf("================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("testbed: %lld Mb/s bottleneck, 50 ms one-way delay, 100 ms buffer\n",
                static_cast<long long>(bench_testbed().bottleneck_rate_bps / 1'000'000));
    std::printf("run: %.0f s, seed %llu\n", bench_duration().to_seconds(),
                static_cast<unsigned long long>(bench_seed()));
    std::printf("================================================================\n");
}

}  // namespace bb::bench

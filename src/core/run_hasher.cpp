#include "core/run_hasher.h"

#include <cstdio>

#include "util/json.h"

namespace bb::core {

std::uint64_t RunHasher::merge(const std::vector<std::uint64_t>& digests) noexcept {
    std::uint64_t h = det::kFnvOffset;
    for (const std::uint64_t d : digests) h = det::fnv1a_u64(h, d);
    return h;
}

std::string RunHasher::hex(std::uint64_t digest) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest));
    return std::string{buf};
}

std::string RunHasher::trace_json() const {
    return trace_json(chain_.digest(), chain_.records(), chain_.trace_capacity(),
                      chain_.trace());
}

std::string RunHasher::trace_json(std::uint64_t final_digest, std::uint64_t records_total,
                                  std::size_t ring_capacity,
                                  const std::vector<det::TraceRecord>& records) {
    // Columnar layout keeps large rings compact and trivially extractable by
    // bb diverge without a general JSON parser.
    JsonWriter w;
    w.begin_object();
    w.key("schema").value("bb.hashtrace.v1");
    w.key("final_digest").value(hex(final_digest));
    w.key("records_total").value_uint(records_total);
    w.key("ring_capacity").value_uint(static_cast<std::uint64_t>(ring_capacity));
    w.key("first_seq").value_uint(records.empty() ? 0 : records.front().seq);
    w.key("seq").begin_array_inline();
    for (const auto& r : records) w.value_uint(r.seq);
    w.end_array();
    w.key("t_ns").begin_array_inline();
    for (const auto& r : records) w.value_int(r.t_ns);
    w.end_array();
    w.key("site").begin_array_inline();
    for (const auto& r : records) w.value(det::site_name(r.site));
    w.end_array();
    w.key("digest").begin_array_inline();
    for (const auto& r : records) w.value(hex(r.digest));
    w.end_array();
    w.end_object();
    return w.take() + "\n";
}

}  // namespace bb::core

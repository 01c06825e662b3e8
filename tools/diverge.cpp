// bb diverge: compare two bb.hashtrace.v1 files and bisect to the FIRST
// divergent chain record (DESIGN.md §14).
//
//   $ bb sweep a.json --hash-trace-out a.trace
//   $ bb sweep a.json --hash-trace-out b.trace   # suspect run
//   $ bb diverge a.trace b.trace
//
// Because every record's digest folds in every record before it, digests at
// the same seq are equal iff the two runs agree on ALL actions up to and
// including that seq.  That makes "first divergent record" binary-searchable
// over the overlapping ring window: digests equal at seq k => divergence is
// after k; unequal => at or before k.
//
// Exit codes: 0 = traces identical, 1 = divergence found (or localised to
// "before the ring window"), 2 = usage/parse/schema error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bb.h"
#include "util/flags.h"
#include "util/json.h"

namespace {

using bb::JsonParse;
using bb::JsonValue;

struct Trace {
    std::string path;
    std::uint64_t final_digest{0};
    std::uint64_t records_total{0};
    std::uint64_t ring_capacity{0};
    std::vector<std::uint64_t> seq;
    std::vector<std::int64_t> t_ns;
    std::vector<std::string> site;
    std::vector<std::uint64_t> digest;

    [[nodiscard]] bool empty() const noexcept { return seq.empty(); }
    [[nodiscard]] std::uint64_t first_seq() const noexcept { return seq.front(); }
    [[nodiscard]] std::uint64_t last_seq() const noexcept { return seq.back(); }

    // Ring index of record `s`; rings are contiguous seq runs, so this is
    // just an offset from the front.
    [[nodiscard]] std::size_t index_of(std::uint64_t s) const noexcept {
        return static_cast<std::size_t>(s - first_seq());
    }
};

bool parse_hex_u64(const std::string& s, std::uint64_t* out) {
    if (s.empty() || s.size() > 16) return false;
    char* end = nullptr;
    *out = std::strtoull(s.c_str(), &end, 16);
    return end != nullptr && *end == '\0';
}

bool load_trace(const std::string& path, Trace* out) {
    const JsonParse parsed = bb::json_parse_file(path);
    if (!parsed.ok) {
        std::fprintf(stderr, "%s\n", parsed.error.c_str());
        return false;
    }
    const JsonValue& doc = parsed.value;
    const JsonValue* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->string_value != "bb.hashtrace.v1") {
        std::fprintf(stderr, "%s: not a bb.hashtrace.v1 document\n", path.c_str());
        return false;
    }
    out->path = path;

    const JsonValue* fd = doc.find("final_digest");
    if (fd == nullptr || !fd->is_string() ||
        !parse_hex_u64(fd->string_value, &out->final_digest)) {
        std::fprintf(stderr, "%s: bad or missing final_digest\n", path.c_str());
        return false;
    }
    const auto read_uint = [&](const char* key, std::uint64_t* v) {
        const JsonValue* j = doc.find(key);
        if (j == nullptr || !j->is_number() || !j->number_is_int || j->int_value < 0) {
            std::fprintf(stderr, "%s: bad or missing %s\n", path.c_str(), key);
            return false;
        }
        *v = static_cast<std::uint64_t>(j->int_value);
        return true;
    };
    if (!read_uint("records_total", &out->records_total)) return false;
    if (!read_uint("ring_capacity", &out->ring_capacity)) return false;

    const auto read_array = [&](const char* key) -> const JsonValue* {
        const JsonValue* j = doc.find(key);
        if (j == nullptr || !j->is_array()) {
            std::fprintf(stderr, "%s: bad or missing %s array\n", path.c_str(), key);
            return nullptr;
        }
        return j;
    };
    const JsonValue* seq = read_array("seq");
    const JsonValue* t_ns = read_array("t_ns");
    const JsonValue* site = read_array("site");
    const JsonValue* digest = read_array("digest");
    if (seq == nullptr || t_ns == nullptr || site == nullptr || digest == nullptr) {
        return false;
    }
    const std::size_t n = seq->items.size();
    if (t_ns->items.size() != n || site->items.size() != n || digest->items.size() != n) {
        std::fprintf(stderr, "%s: seq/t_ns/site/digest arrays disagree on length\n",
                     path.c_str());
        return false;
    }
    out->seq.reserve(n);
    out->t_ns.reserve(n);
    out->site.reserve(n);
    out->digest.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const JsonValue& s = seq->items[i];
        const JsonValue& t = t_ns->items[i];
        const JsonValue& st = site->items[i];
        const JsonValue& d = digest->items[i];
        std::uint64_t dv = 0;
        if (!s.is_number() || !s.number_is_int || !t.is_number() || !t.number_is_int ||
            !st.is_string() || !d.is_string() || !parse_hex_u64(d.string_value, &dv)) {
            std::fprintf(stderr, "%s: malformed record %zu\n", path.c_str(), i);
            return false;
        }
        out->seq.push_back(static_cast<std::uint64_t>(s.int_value));
        out->t_ns.push_back(t.int_value);
        out->site.push_back(st.string_value);
        out->digest.push_back(dv);
        // Contiguity underpins index_of() and the bisection itself.
        if (i > 0 && out->seq[i] != out->seq[i - 1] + 1) {
            std::fprintf(stderr, "%s: seq array is not contiguous at record %zu\n",
                         path.c_str(), i);
            return false;
        }
    }
    return true;
}

void print_record(const Trace& t, std::uint64_t s, const char* marker) {
    if (t.empty() || s < t.first_seq() || s > t.last_seq()) return;
    const std::size_t i = t.index_of(s);
    std::printf("  %s seq %llu  site %-7s  t_ns %lld  digest %016llx\n", marker,
                static_cast<unsigned long long>(s), t.site[i].c_str(),
                static_cast<long long>(t.t_ns[i]),
                static_cast<unsigned long long>(t.digest[i]));
}

// Context lines around the divergence, from both traces.
void print_context(const Trace& a, const Trace& b, std::uint64_t at) {
    const std::uint64_t lo = at >= 2 ? at - 2 : 0;
    std::printf("trace A (%s):\n", a.path.c_str());
    for (std::uint64_t s = lo; s <= at + 2; ++s) print_record(a, s, s == at ? ">" : " ");
    std::printf("trace B (%s):\n", b.path.c_str());
    for (std::uint64_t s = lo; s <= at + 2; ++s) print_record(b, s, s == at ? ">" : " ");
}

}  // namespace

namespace bb::tools {

int diverge_main(int argc, char** argv) {
    FlagSet flags{"bb diverge",
                  "bisect two bb.hashtrace.v1 files to the first divergent chain record"};
    flags.allow_positionals(2, 2, "<trace_a.json> <trace_b.json>");
    if (!flags.parse(argc, argv)) return flags.error().empty() ? 0 : 2;

    Trace a, b;
    if (!load_trace(flags.positionals()[0], &a)) return 2;
    if (!load_trace(flags.positionals()[1], &b)) return 2;

    if (a.final_digest == b.final_digest && a.records_total == b.records_total) {
        std::printf("identical: %llu records, final digest %016llx\n",
                    static_cast<unsigned long long>(a.records_total),
                    static_cast<unsigned long long>(a.final_digest));
        return 0;
    }

    std::printf("final digests differ: %016llx (%llu records) vs %016llx (%llu records)\n",
                static_cast<unsigned long long>(a.final_digest),
                static_cast<unsigned long long>(a.records_total),
                static_cast<unsigned long long>(b.final_digest),
                static_cast<unsigned long long>(b.records_total));

    if (a.empty() || b.empty()) {
        std::printf("no ring records to bisect (rerun with --hash-trace-out / "
                    "--hash-trace-capacity)\n");
        return 1;
    }

    const std::uint64_t lo_seq = std::max(a.first_seq(), b.first_seq());
    const std::uint64_t hi_seq = std::min(a.last_seq(), b.last_seq());
    if (lo_seq > hi_seq) {
        std::printf("ring windows do not overlap ([%llu,%llu] vs [%llu,%llu]); "
                    "rerun with a larger --hash-trace-capacity\n",
                    static_cast<unsigned long long>(a.first_seq()),
                    static_cast<unsigned long long>(a.last_seq()),
                    static_cast<unsigned long long>(b.first_seq()),
                    static_cast<unsigned long long>(b.last_seq()));
        return 1;
    }

    if (a.digest[a.index_of(lo_seq)] != b.digest[b.index_of(lo_seq)]) {
        // Already divergent at the oldest shared record: the first divergence
        // happened before the window unless this is the very first record.
        if (lo_seq == 0) {
            std::printf("first divergent record: seq 0\n");
            print_context(a, b, 0);
            return 1;
        }
        std::printf("divergence precedes the ring window (already divergent at seq %llu); "
                    "rerun with a larger --hash-trace-capacity\n",
                    static_cast<unsigned long long>(lo_seq));
        print_context(a, b, lo_seq);
        return 1;
    }

    if (a.digest[a.index_of(hi_seq)] == b.digest[b.index_of(hi_seq)]) {
        // Chains agree across the whole shared window, yet the finals differ:
        // the divergence is in the tail one run has and the other lacks.
        std::printf("chains agree through seq %llu; divergence is after the shared "
                    "window (records_total %llu vs %llu)\n",
                    static_cast<unsigned long long>(hi_seq),
                    static_cast<unsigned long long>(a.records_total),
                    static_cast<unsigned long long>(b.records_total));
        return 1;
    }

    // Invariant: digests equal at lo, unequal at hi.  Bisect for the first
    // unequal seq; the chain property makes digest equality monotone.
    std::uint64_t lo = lo_seq;  // known equal
    std::uint64_t hi = hi_seq;  // known unequal
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (a.digest[a.index_of(mid)] == b.digest[b.index_of(mid)]) {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    const std::size_t ia = a.index_of(hi);
    std::printf("first divergent record: seq %llu (site %s, t_ns %lld)\n",
                static_cast<unsigned long long>(hi), a.site[ia].c_str(),
                static_cast<long long>(a.t_ns[ia]));
    print_context(a, b, hi);
    return 1;
}

}  // namespace bb::tools

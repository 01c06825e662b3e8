#!/usr/bin/env python3
"""Project lint: repo-specific rules the generic tools cannot express.

Rules (see DESIGN.md §10 for rationale):

  no-std-function     std::function is banned in src/sim and src/core — hot
                      paths use util::UniqueFunction (single allocation-free
                      dispatch, move-only).
  no-raw-random       rand()/srand()/std::random_device, raw <random>
                      engines (std::mt19937/mt19937_64, minstd_rand/0,
                      default_random_engine), std::*_distribution and
                      std::generate_canonical are banned everywhere except
                      util/rng.h: all randomness flows through the
                      deterministically fork-seeded util::Rng and the draws
                      it owns.  A raw engine in a queue discipline or the
                      lossy link would silently break replica
                      reproducibility and the seed-pinned golden tests; a
                      std:: distribution bypasses the draws Rng pins bit for
                      bit.
  no-direct-io        printf/fprintf/puts/fputs/std::cout/std::cerr are banned
                      in src/ except the two sanctioned emitters (obs/log.cpp,
                      obs/trace.cpp) — output goes through obs::log or the
                      tools layer.  (snprintf formatting is fine.)
  no-float-estimator  `float` is banned in src/core and src/measure: estimator
                      arithmetic is all-double; a stray float silently halves
                      the mantissa and breaks bit-identity guarantees.
  own-header-first    every src/**/<name>.cpp with a sibling <name>.h must
                      include "dir/<name>.h" first, keeping headers
                      self-contained.
  no-ambient-time     std::chrono::{system,steady,high_resolution}_clock is
                      banned in src/core and src/sim: the simulation has ONE
                      clock (sim::Scheduler::now()), and ambient wall time in
                      the engine or estimators silently breaks replica
                      reproducibility.  Wall timing belongs in tools/ and the
                      progress layer.  (scripts/analyze_determinism.py carries
                      the wider determinism ruleset.)
  no-adhoc-scenario   hand-wired scenario plumbing (constructing a
                      scenarios::Testbed / Figure3Testbed, or declaring a
                      QueueBase::LinkConfig) is banned outside src/scenarios
                      and src/sim (the defining layers), and so is
                      constructing a scenarios::Experiment in bench/,
                      tools/ and examples/: experiment wiring goes through
                      the scenario DSL and the scenarios::build_testbed /
                      build_experiment factories, so every run is
                      reproducible from a spec document.
  no-node-container   std::map/multimap/set/multiset/list/forward_list/deque
                      are banned in src/sim and src/tcp: the per-packet path
                      keeps its state in flat storage (vectors, detail::Ring,
                      lanes), so it allocates nothing per element and stays
                      O(1) per packet (DESIGN.md §9).

Waivers, for the rare justified exception (justify in a trailing comment):

  // bb-lint: allow(<rule-id>)        waives the rule on this and the next line
  // bb-lint: allow-file(<rule-id>)   waives the rule for the whole file

Usage:
  scripts/lint_bb.py                # lint src/ tools/ bench/ examples/ under the repo root
  scripts/lint_bb.py PATH...        # lint specific files or directories
  scripts/lint_bb.py --self-test    # run the table-driven self-test

Exit status: 0 clean, 1 findings, 2 self-test failure or bad usage.
"""

from __future__ import annotations

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SCAN = ["src", "tools", "bench", "examples"]
CXX_EXTENSIONS = (".cpp", ".h")


# --------------------------------------------------------------------------
# Source mangling: blank out comments and string/char literals (preserving
# line structure) so rule patterns only see code.  Waiver comments are read
# from the raw text before stripping.

def strip_comments_and_literals(text: str) -> str:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        elif c == "'":
            # C++14 digit separator (1'000'000): an apostrophe directly after
            # an alphanumeric character is not a char literal.
            if out and (out[-1].isalnum() or out[-1] == "_"):
                out.append(" ")
                i += 1
            else:
                i += 1
                while i < n and text[i] != "'":
                    if text[i] == "\\":
                        i += 1
                    i += 1
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


WAIVE_LINE = re.compile(r"bb-lint:\s*allow\(([a-z0-9-]+)\)")
WAIVE_FILE = re.compile(r"bb-lint:\s*allow-file\(([a-z0-9-]+)\)")


def collect_waivers(raw_lines):
    """Return (file_waivers: set, line_waivers: dict lineno -> set)."""
    file_waivers = set()
    line_waivers = {}
    for idx, line in enumerate(raw_lines, start=1):
        for m in WAIVE_FILE.finditer(line):
            file_waivers.add(m.group(1))
        for m in WAIVE_LINE.finditer(line):
            line_waivers.setdefault(idx, set()).add(m.group(1))
            line_waivers.setdefault(idx + 1, set()).add(m.group(1))
    return file_waivers, line_waivers


# --------------------------------------------------------------------------
# Rules.  Each rule: id, scope predicate over the repo-relative path, and a
# checker yielding (lineno, message).  `ctx` carries the bits a checker needs
# beyond the file text (sibling-header existence), injectable for self-tests.

def in_dirs(path, *dirs):
    return any(path == d or path.startswith(d + "/") for d in dirs)


def grep_rule(pattern, message):
    rx = re.compile(pattern)

    def check(path, code_lines, ctx):
        del path, ctx
        for idx, line in enumerate(code_lines, start=1):
            if rx.search(line):
                yield idx, message
    return check


_ADHOC_TESTBED = grep_rule(
    r"\b(?:scenarios::)?(?:Figure3)?Testbed\s+\w+\s*\{"
    r"|\b(?:sim::)?QueueBase::LinkConfig\s+\w+\s*[;{=]",
    "hand-wired scenario construction; go through the scenario DSL "
    "and scenarios::build_testbed")
# A scenarios::Experiment (not core::Experiment, the probe design's unit)
# declared by value or allocated; references and parameters stay legal.
_ADHOC_EXPERIMENT = grep_rule(
    r"(?:(?<!::)|(?<=scenarios::))\bExperiment\s+\w+\s*[{(=]"
    r"|\bmake_(?:unique|shared)\s*<\s*(?:(?:bb::)?scenarios::)?Experiment\s*>"
    r"|\bnew\s+(?:(?:bb::)?scenarios::)?Experiment\b",
    "hand-wired experiment; parse a spec document and call "
    "scenarios::build_experiment")


def check_adhoc_scenario(path, code_lines, ctx):
    yield from _ADHOC_TESTBED(path, code_lines, ctx)
    if in_dirs(path, "bench", "tools", "examples"):
        yield from _ADHOC_EXPERIMENT(path, code_lines, ctx)


def check_own_header_first(path, code_lines, ctx):
    if not path.startswith("src/") or not path.endswith(".cpp"):
        return
    header = path[:-len(".cpp")] + ".h"
    if not ctx["header_exists"](header):
        return
    expected = '"' + header[len("src/"):] + '"'
    # The stripped line identifies real (uncommented) includes; the path
    # itself is a string literal, so read it back from the raw line.
    for idx, line in enumerate(code_lines, start=1):
        if re.match(r"\s*#\s*include\b", line):
            m = re.search(r'#\s*include\s+(<[^>]+>|"[^"]+")', ctx["raw_lines"][idx - 1])
            if m and m.group(1) != expected:
                yield idx, f"first include must be the file's own header {expected}"
            return


RULES = [
    {
        "id": "no-std-function",
        "scope": lambda p: in_dirs(p, "src/sim", "src/core"),
        "check": grep_rule(r"\bstd::function\s*<",
                           "std::function in a hot-path library; use util::UniqueFunction"),
    },
    {
        "id": "no-raw-random",
        "scope": lambda p: in_dirs(p, "src", "tools", "bench") and p != "src/util/rng.h",
        "check": grep_rule(
            r"\b(?:std::)?s?rand\s*\(|\bstd::random_device\b"
            r"|\bstd::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine)\b"
            r"|\bstd::(?:\w+_distribution|generate_canonical)\b",
            "raw randomness; all draws go through the seeded util::Rng"),
    },
    {
        "id": "no-direct-io",
        # Only the sanctioned emitters are exempt: obs::log's own sink and the
        # trace writer.  The rest of src/obs (metrics, recorder, timeseries)
        # returns data to the caller like any other library code.
        "scope": lambda p: (in_dirs(p, "src")
                            and p not in ("src/obs/log.cpp", "src/obs/trace.cpp")),
        "check": grep_rule(
            r"\b(?:std::)?(?:printf|fprintf|puts|fputs)\s*\(|\bstd::(?:cout|cerr)\b",
            "direct stdout/stderr I/O in src/; use obs::log or return data to the caller"),
    },
    {
        "id": "no-float-estimator",
        "scope": lambda p: in_dirs(p, "src/core", "src/measure"),
        "check": grep_rule(r"\bfloat\b",
                           "float in estimator arithmetic; this codebase is all-double"),
    },
    {
        "id": "own-header-first",
        "scope": lambda p: in_dirs(p, "src"),
        "check": check_own_header_first,
    },
    {
        "id": "no-ambient-time",
        "scope": lambda p: in_dirs(p, "src/core", "src/sim"),
        "check": grep_rule(
            r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b",
            "ambient wall clock in the engine; sim time comes from "
            "sim::Scheduler::now() only"),
    },
    {
        "id": "no-adhoc-scenario",
        "scope": lambda p: (in_dirs(p, "src", "tools", "bench", "examples")
                            and not in_dirs(p, "src/scenarios", "src/sim")),
        # Constructions only: `Testbed tb{...}`, `Figure3Testbed f{...}`,
        # `QueueBase::LinkConfig link;` and, in bench/, tools/ and examples/,
        # `scenarios::Experiment exp{...}` — references and parameters
        # (`Testbed&`, `const QueueBase::LinkConfig&`, `Experiment&`) stay legal.
        "check": check_adhoc_scenario,
    },
    {
        "id": "no-node-container",
        "scope": lambda p: in_dirs(p, "src/sim", "src/tcp"),
        "check": grep_rule(
            r"\bstd::(?:(?:multi)?(?:map|set)|(?:forward_)?list|deque)\s*<",
            "node container on the per-packet path; use a vector, detail::Ring or a lane"),
    },
]


def lint_text(path, text, ctx):
    """Lint one file's contents; returns a list of (path, lineno, rule, msg)."""
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_literals(text).splitlines()
    file_waivers, line_waivers = collect_waivers(raw_lines)
    ctx = dict(ctx, raw_lines=raw_lines)
    findings = []
    for rule in RULES:
        if not rule["scope"](path):
            continue
        if rule["id"] in file_waivers:
            continue
        for lineno, msg in rule["check"](path, code_lines, ctx):
            if rule["id"] in line_waivers.get(lineno, set()):
                continue
            findings.append((path, lineno, rule["id"], msg))
    return findings


def real_ctx():
    return {"header_exists": lambda rel: os.path.exists(os.path.join(REPO_ROOT, rel))}


def iter_files(args):
    roots = args if args else DEFAULT_SCAN
    for root in roots:
        full = os.path.join(REPO_ROOT, root) if not os.path.isabs(root) else root
        if os.path.isfile(full):
            yield os.path.relpath(full, REPO_ROOT)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), REPO_ROOT)


def run_lint(args):
    ctx = real_ctx()
    findings = []
    for rel in iter_files(args):
        with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
            findings.extend(lint_text(rel, f.read(), ctx))
    for path, lineno, rule, msg in findings:
        print(f"{path}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"lint_bb: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_bb: clean ({sum(1 for _ in iter_files(args))} files)")
    return 0


# --------------------------------------------------------------------------
# Table-driven self-test: (rule, path, snippet, sibling-header-exists, flagged?)

SELF_TEST_TABLE = [
    ("no-std-function", "src/sim/x.h", "std::function<void()> f;", False, True),
    ("no-std-function", "src/sim/x.h", "UniqueFunction<void()> f;", False, False),
    ("no-std-function", "src/tcp/x.h", "std::function<void()> f;", False, False),  # out of scope
    ("no-std-function", "src/core/x.h", "// std::function<int()> in a comment", False, False),
    ("no-std-function", "src/sim/x.h",
     "std::function<void()> f;  // bb-lint: allow(no-std-function)", False, False),
    ("no-raw-random", "src/core/x.cpp", "int r = rand();", False, True),
    ("no-raw-random", "bench/x.cpp", "std::random_device rd;", False, True),
    ("no-raw-random", "src/util/rng.h", "std::random_device rd;", False, False),  # exempt
    ("no-raw-random", "src/core/x.cpp", "int operand = f();", False, False),  # substring trap
    ("no-raw-random", "src/sim/x.cpp", "std::exponential_distribution<double> d{1.0};", False,
     True),
    ("no-raw-random", "tools/x.cpp", "std::uniform_int_distribution<int> d{0, 9};", False, True),
    ("no-raw-random", "bench/x.cpp", "double u = std::generate_canonical<double, 53>(g);", False,
     True),
    ("no-raw-random", "src/util/rng.h", "std::normal_distribution<double> d{0.0, 1.0};", False,
     False),  # exempt: Rng owns its draws
    ("no-raw-random", "tests/x.cpp", "std::exponential_distribution<double> d{1.0};", False,
     False),  # out of scope: tests use them as oracles
    ("no-raw-random", "src/core/x.cpp", "double exponential_distribution_mean(double m);", False,
     False),  # not the std:: template
    ("no-direct-io", "src/core/x.cpp", 'std::printf("%d", 1);', False, True),
    ("no-direct-io", "src/core/x.cpp", "std::cout << 1;", False, True),
    ("no-direct-io", "src/obs/log.cpp", 'fprintf(stderr, "x");', False, False),  # sanctioned sink
    ("no-direct-io", "src/obs/trace.cpp", 'std::fputs("[", f);', False, False),  # sanctioned sink
    ("no-direct-io", "src/obs/recorder.cpp", 'std::printf("x");', False, True),  # not exempt
    ("no-direct-io", "src/obs/timeseries.cpp", "std::cerr << 1;", False, True),  # not exempt
    ("no-direct-io", "src/core/x.cpp", 'std::snprintf(buf, sizeof buf, "x");', False, False),
    ("no-direct-io", "src/core/x.cpp", 'const char* s = "printf(";', False, False),  # in literal
    ("no-direct-io", "src/core/x.cpp",
     '// bb-lint: allow(no-direct-io)\nstd::printf("ok");', False, False),
    ("no-float-estimator", "src/core/x.cpp", "float p = 0.1f;", False, True),
    ("no-float-estimator", "src/measure/x.h", "float q;", False, True),
    ("no-float-estimator", "src/core/x.cpp", "double p = 0.1;", False, False),
    ("no-float-estimator", "src/sim/x.cpp", "float ok_here = 1.0f;", False, False),  # out of scope
    ("no-float-estimator", "src/core/x.cpp", "int inflate = 1;", False, False),  # substring trap
    ("own-header-first", "src/core/x.cpp", '#include <vector>\n#include "core/x.h"', True, True),
    ("own-header-first", "src/core/x.cpp", '#include "core/x.h"\n#include <vector>', True, False),
    ("own-header-first", "src/core/x.cpp", "#include <vector>", False, False),  # no sibling header
    ("own-header-first", "src/core/x.cpp",
     "// bb-lint: allow-file(own-header-first)\n#include <vector>\n#include \"core/x.h\"",
     True, False),
    ("no-raw-random", "src/core/x.cpp", "const auto n = 1'000'000; int r = rand();",
     False, True),  # digit separators must not eat the rest of the line
    # Raw <random> engines in the discipline/lossy-link layer: determinism
    # there rests on the fork-seeded util::Rng, so engines are findings too.
    ("no-raw-random", "src/sim/aqm.cpp", "std::mt19937_64 eng{17};", False, True),
    ("no-raw-random", "src/sim/aqm.cpp", "std::mt19937 eng;", False, True),
    ("no-raw-random", "src/sim/lossy_link.cpp", "std::default_random_engine e;", False, True),
    ("no-raw-random", "src/sim/aqm.cpp", "std::minstd_rand lcg;", False, True),
    ("no-raw-random", "src/sim/aqm.cpp", "Rng rng{17};", False, False),  # the blessed path
    ("no-raw-random", "src/util/rng.h", "std::mt19937_64 eng_;", False, False),  # exempt
    ("no-raw-random", "src/sim/x.cpp", "std::minstd_rand_like v;", False, False),  # substring trap
    ("no-raw-random", "src/sim/x.cpp", "// std::mt19937 in prose", False, False),  # comment
    ("no-ambient-time", "src/sim/x.cpp",
     "auto t0 = std::chrono::steady_clock::now();", False, True),
    ("no-ambient-time", "src/core/x.cpp",
     "auto t = std::chrono::system_clock::now();", False, True),
    ("no-ambient-time", "src/core/x.cpp",
     "using clk = std::chrono::high_resolution_clock;", False, True),
    ("no-ambient-time", "src/core/x.cpp", "TimeNs t = sched.now();", False, False),  # sim clock
    ("no-ambient-time", "src/scenarios/x.cpp",
     "auto t0 = std::chrono::steady_clock::now();", False, False),  # out of scope
    ("no-ambient-time", "src/sim/x.cpp",
     "// std::chrono::steady_clock in prose", False, False),
    ("no-ambient-time", "src/sim/x.cpp",
     "auto t0 = std::chrono::steady_clock::now();  // bb-lint: allow(no-ambient-time)",
     False, False),
    ("no-adhoc-scenario", "bench/x.cpp", "scenarios::Testbed tb{cfg};", False, True),
    ("no-adhoc-scenario", "bench/x.cpp", "Figure3Testbed fig{cfg};", False, True),
    ("no-adhoc-scenario", "tools/x.cpp", "sim::QueueBase::LinkConfig link;", False, True),
    ("no-adhoc-scenario", "src/scenarios/spec.cpp", "Testbed tb{cfg};", False, False),  # factory home
    ("no-adhoc-scenario", "src/sim/aqm.cpp",
     "std::unique_ptr<QueueBase> make_queue(Scheduler& s, const QueueBase::LinkConfig& cfg);",
     False, False),  # defining layer + reference
    ("no-adhoc-scenario", "bench/x.cpp", "scenarios::Testbed& tb = *tb_ptr;", False, False),  # ref ok
    ("no-adhoc-scenario", "bench/x.cpp",
     "sim::QueueBase::LinkConfig link;  // bb-lint: allow(no-adhoc-scenario)", False, False),
    ("no-adhoc-scenario", "bench/x.cpp", "scenarios::Experiment exp{tb, wl};", False, True),
    ("no-adhoc-scenario", "tools/x.cpp", "bb::scenarios::Experiment exp{tb, wl, tc};", False,
     True),
    ("no-adhoc-scenario", "bench/x.cpp", "Experiment exp(tb, wl);", False, True),
    ("no-adhoc-scenario", "tools/x.cpp",
     "auto exp = std::make_unique<scenarios::Experiment>(tb, wl);", False, True),
    ("no-adhoc-scenario", "bench/x.cpp", "scenarios::Experiment& exp = *built.experiment;",
     False, False),  # reference ok
    ("no-adhoc-scenario", "bench/x.cpp", "void run(const scenarios::Experiment& exp);", False,
     False),  # parameter ok
    ("no-adhoc-scenario", "bench/x.cpp",
     "const scenarios::BuiltExperiment built = scenarios::build_experiment(spec);", False,
     False),  # the sanctioned factory
    ("no-adhoc-scenario", "bench/x.cpp", "const core::Experiment e{slot, kind};", False,
     False),  # the probe design's experiment
    ("no-adhoc-scenario", "src/probes/x.cpp", "scenarios::Experiment exp{tb, wl};", False,
     False),  # the Experiment ban covers bench/, tools/ and examples/ only
    ("no-adhoc-scenario", "bench/x.cpp",
     "scenarios::Experiment exp{tb, wl};  // bb-lint: allow(no-adhoc-scenario)", False, False),
    ("no-adhoc-scenario", "examples/x.cpp", "scenarios::Testbed tb{cfg};", False, True),
    ("no-adhoc-scenario", "examples/x.cpp", "Figure3Testbed fig{cfg};", False, True),
    ("no-adhoc-scenario", "examples/x.cpp",
     "scenarios::Experiment experiment{testbed, workload, truth_cfg};", False, True),
    ("no-adhoc-scenario", "examples/x.cpp",
     "const scenarios::BuiltExperiment built = scenarios::build_experiment(parsed.spec);",
     False, False),  # the sanctioned factory
    ("no-node-container", "src/sim/x.h", "std::deque<Queued> fifo_;", False, True),
    ("no-node-container", "src/tcp/x.h", "std::map<std::int64_t, std::int64_t> m;", False, True),
    ("no-node-container", "src/tcp/x.cpp", "std::multimap<int, int> m;", False, True),
    ("no-node-container", "src/sim/x.cpp", "std::set<int> s;", False, True),
    ("no-node-container", "src/sim/x.cpp", "std::multiset<int> s;", False, True),
    ("no-node-container", "src/sim/x.cpp", "std::list<Packet> l;", False, True),
    ("no-node-container", "src/sim/x.cpp", "std::forward_list<int> l;", False, True),
    ("no-node-container", "src/sim/x.h", "detail::Ring<Queued> fifo_;", False, False),
    ("no-node-container", "src/tcp/x.h", "std::vector<Segment> pending_;", False, False),
    ("no-node-container", "src/sim/x.h", "std::unordered_map_like<int> m;", False, False),
    ("no-node-container", "src/sim/x.cpp", "std::mapping<int> m;", False, False),  # substring
    ("no-node-container", "src/sim/x.cpp", "// a std::map<int, int> in prose", False, False),
    ("no-node-container", "src/scenarios/x.cpp", "std::map<std::string, int> m;",
     False, False),  # out of scope
    ("no-node-container", "src/probes/x.h", "std::map<int, int> m;", False, False),  # ditto
    ("no-node-container", "src/sim/x.cpp",
     "std::map<int, int> m;  // bb-lint: allow(no-node-container)", False, False),
]


def self_test():
    failures = []
    for idx, (rule, path, snippet, header_exists, expect_flag) in enumerate(SELF_TEST_TABLE):
        ctx = {"header_exists": lambda rel, e=header_exists: e}
        findings = [f for f in lint_text(path, snippet + "\n", ctx) if f[2] == rule]
        if bool(findings) != expect_flag:
            failures.append(
                f"case {idx} [{rule}] {path!r}: expected "
                f"{'a finding' if expect_flag else 'clean'}, got {findings!r}")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 2
    print(f"lint_bb: self-test ok ({len(SELF_TEST_TABLE)} cases)")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    if any(a.startswith("--") for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    return run_lint(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""The repository benchmark: one workload per run, every metric by name.

    python3 perfbench/run.py --workload tcp_longlived --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/ (and with it ../src) into
$CARGO_TARGET_DIR or .bench_build, runs the harness for --seconds of closed-loop
batch jobs, checks every operation, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1).  The line before it is the full report:
provenance, the check failures, and both metric sets that apply.  Reports
and, for traced runs, Chrome trace spans are also written to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

# Seeds for later performance claims: tune on the default, confirm on the
# held-out seed (never used while a change is written).
DEFAULT_SEED = 1
HELD_OUT_SEED = 20051021

MIN_JOBS = {
    # Jobs every untraced run executes, whatever --seconds: the accuracy
    # metrics pool their operations, so they depend on the seed alone.  The
    # counts make the pooled means steady across seeds (web errors are
    # heavy-tailed, so it pools the most).
    "tcp_longlived": 3,
    "web_shortflows": 5,
    "cbr_sweep": 5,
    "stream_synth": 2,
}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", "4", "--target", "perfbench_harness"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                           check=False)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    exe = os.path.join(out_dir, "perfbench_harness")
    if not os.path.isfile(exe):
        fail("harness not built at " + exe)
    return exe


def source_digest():
    """sha256 over src/ and perfbench/ sources: names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10, check=False)
    except OSError:
        return None
    return r.stdout.strip() or None


def provenance(report, src_digest):
    return {
        "git_revision": git_revision(),
        "source_digest": src_digest,
        "build_type": report["build_type"],
        "compiler": report["compiler"],
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "bb_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("BB_")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = benchlib.load_benchmark(ROOT)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads)))
    if not 0 <= args.seed < 2 ** 62:
        fail("--seed must be in [0, 2^62)")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    exe = build(build_dir())
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(out, "work-%d" % os.getpid())
    cmd = [exe, "--workload=" + args.workload,
           "--spec=" + os.path.join(HERE, "specs", args.workload + ".json"),
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--min-jobs=%d" % (1 if args.trace else MIN_JOBS[args.workload]),
           "--work-dir=" + work]
    if args.trace:
        cmd.append("--trace-out=" + os.path.join(out, stem + ".trace.json"))
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0:
        fail("harness exited with %d" % r.returncode)
    report = json.loads(r.stdout)

    # Deterministic outputs of this seed and code, kept across runs: every
    # later run of the same seed must reproduce them exactly.
    src_digest = source_digest()
    state_dir = os.path.join(ROOT, ".bench_state", src_digest)
    os.makedirs(state_dir, exist_ok=True)
    state_path = os.path.join(state_dir, "%s-seed%d.json" % (args.workload, args.seed))
    earlier = benchlib.load_json(state_path) if os.path.exists(state_path) else None
    attempted, failed, failures = benchlib.check_report(report, earlier)
    if failed == 0:
        merged = benchlib.merge_fingerprints(earlier, benchlib.fingerprint(report))
        with open(state_path, "w", encoding="utf-8") as f:
            json.dump(merged, f, indent=1, sort_keys=True)

    e2e = benchlib.end_to_end(report)
    layers = benchlib.per_layer(report) if args.trace else None
    kind = "per_layer" if args.trace else "end_to_end"
    line = benchlib.result_line(bench, failed == 0, attempted, failed,
                                layers if args.trace else e2e, kind)
    full = {
        "schema": "perfbench.report.v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(report, src_digest),
        "jobs": [j["config"] for j in report["jobs"]],
        "elapsed_s": report["elapsed_s"],
        "failures": failures[:50],
        "end_to_end": e2e,
        "per_layer": layers,
        "result": line,
    }
    with open(os.path.join(out, stem + ".json"), "w", encoding="utf-8") as f:
        json.dump(full, f, indent=1, sort_keys=True)
    print(json.dumps(full, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

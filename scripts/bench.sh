#!/usr/bin/env bash
# Performance-regression harness: runs every microbenchmark and writes one
# BENCH_<name>.json per bench.
#
#   scripts/bench.sh                # refresh the BENCH_*.json baselines at the
#                                   # repo root (commit them with perf changes)
#   scripts/bench.sh --compare      # run into build/bench_current/ and compare
#                                   # against the checked-in baselines; exits
#                                   # non-zero on a >10% regression
#
# Knobs:
#   BB_BENCH_FAST=1       CI smoke mode: shrunken workloads, per-bench timing
#                         gates off.  --compare then checks structural
#                         invariants only (bit-identity flags, zero-allocation
#                         guarantee, benchmark coverage) — raw timings from a
#                         shrunken run are not comparable to the baselines.
#   BB_BENCH_TOL=0.10     regression tolerance for --compare
#   BB_BENCH_BUILD_DIR    build tree holding bench/ binaries (default: build)
#   BB_BENCH_JOBS         build parallelism (default: nproc)
#
# The per-bench knobs (BB_BENCH_STREAM_SLOTS, BB_OBS_BENCH_*, BB_BENCH_SCHED_*,
# BB_RECORD_BENCH_*) pass through untouched unless BB_BENCH_FAST sets them.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=run
for arg in "$@"; do
  case "$arg" in
    --compare) MODE=compare ;;
    *) echo "usage: scripts/bench.sh [--compare]" >&2; exit 2 ;;
  esac
done

BUILD="${BB_BENCH_BUILD_DIR:-build}"
JOBS="${BB_BENCH_JOBS:-$(nproc)}"
TOL="${BB_BENCH_TOL:-0.10}"
FAST="${BB_BENCH_FAST:-0}"

if [[ ! -d "$BUILD" ]]; then
  cmake -B "$BUILD" -S . >/dev/null
fi
cmake --build "$BUILD" -j "$JOBS" \
  --target micro_core micro_sim micro_stream micro_obs micro_sched micro_record

if [[ "$MODE" == compare ]]; then
  OUT="$BUILD/bench_current"
  rm -rf "$OUT"
  mkdir -p "$OUT"
  # Baseline refreshes enforce micro_obs's absolute 5% budget (measured on a
  # quiet machine); compare runs defer to the comparator's drift gate, which
  # carries slack for background load so CI boxes don't flake on it.
  export BB_OBS_BENCH_GATE="${BB_OBS_BENCH_GATE:-off}"
  export BB_RECORD_BENCH_GATE="${BB_RECORD_BENCH_GATE:-off}"
else
  OUT="."
fi

GB_ARGS=()
if [[ "$FAST" == 1 ]]; then
  GB_ARGS+=(--benchmark_min_time=0.05)
  export BB_BENCH_STREAM_SLOTS="${BB_BENCH_STREAM_SLOTS:-1000000}"
  export BB_BENCH_STREAM_REPS="${BB_BENCH_STREAM_REPS:-1}"
  export BB_OBS_BENCH_SLOTS="${BB_OBS_BENCH_SLOTS:-500000}"
  export BB_OBS_BENCH_REPS="${BB_OBS_BENCH_REPS:-1}"
  export BB_OBS_BENCH_GATE="${BB_OBS_BENCH_GATE:-off}"
  export BB_BENCH_SCHED_EVENTS="${BB_BENCH_SCHED_EVENTS:-200000}"
  export BB_BENCH_SCHED_REPS="${BB_BENCH_SCHED_REPS:-2}"
  export BB_BENCH_SCHED_GATE="${BB_BENCH_SCHED_GATE:-off}"
  export BB_RECORD_BENCH_SECONDS="${BB_RECORD_BENCH_SECONDS:-20}"
  export BB_RECORD_BENCH_REPS="${BB_RECORD_BENCH_REPS:-1}"
  export BB_RECORD_BENCH_GATE="${BB_RECORD_BENCH_GATE:-off}"
else
  # Full runs feed the >10% regression gate: repeat each case and let the
  # comparator judge the min across repetitions, not single noisy samples.
  GB_ARGS+=(--benchmark_repetitions=5)
  export BB_OBS_BENCH_REPS="${BB_OBS_BENCH_REPS:-5}"
fi

echo "==> bench: micro_core"
"./$BUILD/bench/micro_core" "${GB_ARGS[@]}" \
  --benchmark_out="$OUT/BENCH_micro_core.json" --benchmark_out_format=json

echo "==> bench: micro_sim"
"./$BUILD/bench/micro_sim" "${GB_ARGS[@]}" \
  --benchmark_out="$OUT/BENCH_micro_sim.json" --benchmark_out_format=json

echo "==> bench: micro_stream"
BB_BENCH_JSON="$OUT" "./$BUILD/bench/micro_stream"

echo "==> bench: micro_obs"
BB_BENCH_JSON="$OUT" "./$BUILD/bench/micro_obs"

echo "==> bench: micro_sched"
BB_BENCH_JSON="$OUT" "./$BUILD/bench/micro_sched"

echo "==> bench: micro_record"
BB_BENCH_JSON="$OUT" "./$BUILD/bench/micro_record"

# Stamp every file this run wrote with where its numbers come from: host,
# core count, build type, compiler and source revision ("-dirty" when the
# working tree differs from it).
python3 - "$OUT" "$BUILD" <<'PY'
import json, os, platform, re, subprocess, sys
out, build = sys.argv[1], sys.argv[2]
cache = {}
with open(os.path.join(build, "CMakeCache.txt"), encoding="utf-8") as f:
    for line in f:
        m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
        if m:
            cache[m.group(1)] = m.group(2)
def first_line(cmd):
    try:
        text = subprocess.run(cmd, capture_output=True, text=True).stdout
    except OSError:
        return None
    return text.splitlines()[0].strip() if text.strip() else None
rev = first_line(["git", "describe", "--always", "--dirty", "--abbrev=12"])
provenance = {
    "host": platform.node(),
    "nproc": os.cpu_count(),
    # An empty cache value means the top-level CMakeLists default.
    "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
    "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"]),
    "git_rev": rev,
}
for name in ("micro_core", "micro_sim", "micro_stream", "micro_obs", "micro_sched",
             "micro_record"):
    path = os.path.join(out, f"BENCH_{name}.json")
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    doc["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
PY

if [[ "$MODE" == compare ]]; then
  COMPARE_ARGS=(--baseline . --current "$OUT" --tolerance "$TOL")
  if [[ "$FAST" == 1 ]]; then COMPARE_ARGS+=(--fast); fi
  echo "==> bench: comparing against checked-in baselines (tolerance ${TOL})"
  python3 scripts/bench_compare.py "${COMPARE_ARGS[@]}"
else
  echo "==> bench: baselines refreshed at repo root (BENCH_*.json)"
fi

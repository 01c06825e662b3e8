#!/usr/bin/env bash
# Continuous-integration driver: tier-1 verification, static analysis,
# contract builds and sanitizer builds.
#
#   scripts/ci.sh                 # tier-1 + analysis + ASan suite + TSan `-L tsan`
#   BB_CI_SKIP_ANALYSIS=1 scripts/ci.sh   # skip lint/tidy/UBSan/contracts
#   BB_CI_SKIP_ASAN=1 scripts/ci.sh   # skip the AddressSanitizer stage
#   BB_CI_SKIP_TSAN=1 scripts/ci.sh   # skip the ThreadSanitizer stage
#   BB_CI_SKIP_OBS=1 scripts/ci.sh    # skip the observability stage
#   BB_CI_SKIP_SWEEP=1 scripts/ci.sh  # skip the sweep cache stage
#   BB_CI_SKIP_DETERMINISM=1 scripts/ci.sh  # skip the cross-thread digest stage
#   BB_SKIP_BENCH=1 scripts/ci.sh     # skip the perf-regression stage
#
# Each stage uses its own build directory (build, build-ubsan, build-audit,
# build-asan, build-tsan) so sanitizer/contract flags never leak into the
# primary build. BB_SANITIZE is the top-level CMake cache option
# (thread|address|undefined); BB_AUDIT=ON turns on deep invariant walkers.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${BB_CI_JOBS:-$(nproc)}"

echo "==> tier-1: configure + build + full ctest"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "${BB_CI_SKIP_OBS:-0}" != 1 ]]; then
  echo "==> obs: full ctest with the kill switch off (BB_OBS=off)"
  BB_OBS=off ctest --test-dir build --output-on-failure -j "$JOBS"

  echo "==> obs: full ctest with ambient tracing on (BB_OBS_TRACE=1)"
  BB_OBS_TRACE=1 ctest --test-dir build --output-on-failure -j "$JOBS"

  echo "==> obs: micro_obs smoke (assert-only, timing gate off)"
  BB_OBS_BENCH_GATE=off BB_OBS_BENCH_SLOTS=500000 BB_OBS_BENCH_REPS=1 \
    BB_BENCH_JSON=build ./build/bench/micro_obs

  echo "==> obs: micro_record smoke (assert-only, timing gate off)"
  BB_RECORD_BENCH_GATE=off BB_RECORD_BENCH_SECONDS=20 BB_RECORD_BENCH_REPS=1 \
    BB_BENCH_JSON=build ./build/bench/micro_record

  echo "==> obs: sweep with --series-out/--progress-json, validated via util/json"
  obs_dir=$(mktemp -d)
  trap 'rm -rf "$obs_dir"' EXIT
  ./build/tools/bb sweep examples/sweep_smoke.json \
      --out "$obs_dir/out" --series-out "$obs_dir/out" \
      --progress-json "$obs_dir/progress.json" >/dev/null
  ./build/tools/bb check --quiet --require-key=schema "$obs_dir"/out/*.series.json
  ./build/tools/bb check --quiet --require-key=eta_seconds "$obs_dir/progress.json"
  rm -rf "$obs_dir"
fi

if [[ "${BB_CI_SKIP_SWEEP:-0}" != 1 ]]; then
  echo "==> sweep: cold run of the example spec, then assert the warm run is 100% cache hits"
  sweep_dir=$(mktemp -d)
  trap 'rm -rf "$sweep_dir"' EXIT
  ./build/tools/bb sweep examples/sweep_smoke.json \
      --out "$sweep_dir/out" --cache-dir "$sweep_dir/cache" \
    | tee "$sweep_dir/cold.log"
  grep -q 'cells: 2 total, computed 2, cached 0' "$sweep_dir/cold.log" \
    || { echo "ci: cold sweep did not compute both cells" >&2; exit 1; }
  ./build/tools/bb sweep examples/sweep_smoke.json \
      --out "$sweep_dir/out" --cache-dir "$sweep_dir/cache" \
    | tee "$sweep_dir/warm.log"
  grep -q 'cells: 2 total, computed 0, cached 2' "$sweep_dir/warm.log" \
    || { echo "ci: warm sweep was not 100% cache hits" >&2; exit 1; }
fi

if [[ "${BB_CI_SKIP_DETERMINISM:-0}" != 1 ]]; then
  echo "==> determinism: identical run-state digests across threads and BB_OBS (DESIGN.md §14)"
  det_dir=$(mktemp -d)
  trap 'rm -rf "$det_dir"' EXIT
  # Run `bb sweep SPEC --state-hash` at each given thread count x
  # BB_OBS {off,on}; every merged digest must equal the first.
  same_digest() {
    local spec=$1 ref_digest="" digest threads obs
    shift
    for threads in "$@"; do
      for obs in off on; do
        BB_OBS="$obs" ./build/tools/bb sweep "$spec" --state-hash \
          --out "$det_dir/out" --threads "$threads" > "$det_dir/run.log"
        digest=$(sed -n 's/^state-hash   : \([0-9a-f]\{16\}\).*/\1/p' "$det_dir/run.log")
        [[ -n "$digest" ]] \
          || { echo "ci: $spec: no state-hash line (threads=$threads BB_OBS=$obs)" >&2; exit 1; }
        if [[ -z "$ref_digest" ]]; then
          ref_digest="$digest"
          echo "    $spec: reference digest $ref_digest (threads=$1 BB_OBS=off)"
        elif [[ "$digest" != "$ref_digest" ]]; then
          echo "ci: $spec: digest diverged: $digest != $ref_digest" \
               "(threads=$threads BB_OBS=$obs)" >&2
          exit 1
        fi
      done
    done
    echo "    $spec: digests identical across threads {$*} x BB_OBS {off,on}"
  }
  # Table 4's CBR scenario (cbr, p 0.3), 20 s x 4 replicas; digests must not
  # depend on worker-thread count or the obs kill switch.
  same_digest tests/data/replicas_cbr.json 1 4 8
  # Table 7's sweep, whose tau cells share one simulation per N.
  same_digest examples/table7.json 1 4
  # 40 long-lived TCP flows (the tcp_longlived workload, shortened).
  same_digest tests/data/tcp_longlived_short.json 1 4
  # Web sessions over short TCP flows with delay-based truth (the
  # web_shortflows workload, shortened).
  same_digest tests/data/web_shortflows_short.json 1 4
  # Synthetic replicas (probe.streaming): 8 streams of 200k slots, then the
  # benchmark's stream_synth spec as shipped (128 streams of 200k slots).
  same_digest tests/data/stream_replicas.json 1 4
  same_digest perfbench/specs/stream_synth.json 1 4
  # ZING and truth-only (probe.tool "none") replicas, 20 s x 4 replicas each.
  same_digest tests/data/replicas_zing.json 1 4
  same_digest tests/data/replicas_none.json 1 4
  rm -rf "$det_dir"
fi

if [[ "${BB_SKIP_BENCH:-0}" != 1 ]]; then
  echo "==> bench: perf-regression smoke (BB_BENCH_FAST=1 scripts/bench.sh --compare)"
  BB_BENCH_FAST=1 scripts/bench.sh --compare
fi

tidy_status="skipped (BB_CI_SKIP_ANALYSIS=1)"
if [[ "${BB_CI_SKIP_ANALYSIS:-0}" != 1 ]]; then
  echo "==> analysis: project lint (scripts/lint_bb.py)"
  python3 scripts/lint_bb.py --self-test
  python3 scripts/lint_bb.py

  echo "==> analysis: determinism rules (scripts/analyze_determinism.py)"
  python3 scripts/analyze_determinism.py --self-test
  python3 scripts/analyze_determinism.py

  # tidy.sh exit 3 = "could not run" (missing/old clang-tidy) — reported as a
  # distinct skip, never conflated with "checked and clean".
  echo "==> analysis: clang-tidy (exit 3 = skipped, reported below)"
  tidy_rc=0
  scripts/tidy.sh build || tidy_rc=$?
  case "$tidy_rc" in
    0) tidy_status="clean" ;;
    3) tidy_status="SKIPPED (clang-tidy missing or too old — not a pass)" ;;
    *) echo "ci: clang-tidy found diagnostics (exit $tidy_rc)" >&2; exit "$tidy_rc" ;;
  esac

  echo "==> analysis: UBSan + warnings-as-errors build + full ctest"
  cmake -B build-ubsan -S . -DBB_SANITIZE=undefined -DBB_WERROR=ON >/dev/null
  cmake --build build-ubsan -j "$JOBS"
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"

  echo "==> analysis: deep-contract build (BB_AUDIT=ON) + full ctest"
  cmake -B build-audit -S . -DBB_AUDIT=ON >/dev/null
  cmake --build build-audit -j "$JOBS"
  ctest --test-dir build-audit --output-on-failure -j "$JOBS"
fi

if [[ "${BB_CI_SKIP_ASAN:-0}" != 1 ]]; then
  echo "==> asan: BB_SANITIZE=address build + full ctest"
  cmake -B build-asan -S . -DBB_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

if [[ "${BB_CI_SKIP_TSAN:-0}" != 1 ]]; then
  echo "==> tsan: BB_SANITIZE=thread build + ctest -L tsan"
  cmake -B build-tsan -S . -DBB_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L tsan
fi

echo "==> ci: all requested stages passed (clang-tidy: $tidy_status)"

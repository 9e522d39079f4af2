#!/usr/bin/env bash
# One-command end-to-end benchmark: builds bench_e2e from this checkout
# (into $CARGO_TARGET_DIR, default .bench_build), then runs it.
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--out DIR] [--runs N]
#   bench/e2e/run.sh --smoke
#
# --workload NAME   run one workload; its JSON result is the last stdout line
#                   (default: all three, one process each)
# --seed N          workload seed: data, query order, updates (42)
# --seconds S       length of the measured phase (25)
# --trace           add the traced phase and print the per-layer metrics
# --out DIR         BENCH_<workload>.json and trace_<workload>.json (.bench_out)
# --runs N          run each workload N times into DIR/run<i>/ and merge them
#                   into DIR/BENCH_<workload>.json with medians and quartiles
# --smoke           every workload at tiny scale with every gate on
#
# Run from the repository root. Compare two result directories with
# bench/e2e/compare.py.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"

workloads=()
seed=42
seconds=25
trace=0
out=.bench_out
runs=1
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --out) out="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(seismic-hnsw deep-sharded deep-live)
fi

# Build output goes to stderr: stdout carries only metrics and results.
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2
bin="$build/bench_e2e"

if [ "$smoke" -eq 1 ]; then
  exec "$bin" --smoke 1 --out "$out/smoke"
fi

sha="$(git -C "$here" describe --always --dirty --abbrev=40 2>/dev/null ||
       echo unknown)"
args=(--seed "$seed" --seconds "$seconds" --trace "$trace" --git-sha "$sha")
if [ -d "$here/baseline/set1" ]; then
  args+=(--baseline "$here/baseline/set1")
fi

if [ ${#workloads[@]} -eq 1 ] && [ "$runs" -eq 1 ]; then
  exec "$bin" --workload "${workloads[0]}" --out "$out" "${args[@]}"
fi

status=0
run_dirs=()
for ((i = 1; i <= runs; i++)); do
  dir="$out"
  if [ "$runs" -gt 1 ]; then dir="$out/run$i"; run_dirs+=("$dir"); fi
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --out "$dir" "${args[@]}" || status=1
  done
done
if [ "$runs" -gt 1 ]; then
  python3 "$here/compare.py" merge "${run_dirs[@]}" --out "$out" || status=1
fi
exit "$status"

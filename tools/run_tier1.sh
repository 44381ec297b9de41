#!/usr/bin/env bash
# Runs the full tier-1 gate and prints a per-step PASS/FAIL summary:
#
#   1. docs lint (tools/check_docs.py — cross-links, paths, flags,
#      labels, presets, and the METRICS.md metric-family inventory);
#   2. configure + build + ctest for the default preset, then the asan
#      and tsan presets (which run the concurrency-sensitive labels:
#      engine, server, cache, storage, resilience, replication, kernel
#      — see CMakePresets.json). The default ctest run includes the
#      two seeded resilience gates, label `chaos`: the single-node
#      `wdpt_loadgen --chaos` run and the `wdpt_loadgen --replicas 2
#      --chaos` run (docs/RESILIENCE.md, docs/REPLICATION.md);
#   3. a join-kernel perf smoke: `bench_kernel --check` runs the
#      bag-kernel-vs-backtracking differential gate on a reduced
#      instance and writes a benchmark JSON, which is then fed through
#      tools/bench_compare.py (against itself — exercises the
#      regression-gate plumbing; compare against a saved baseline by
#      hand for real regression hunts, see docs/BENCHMARKS.md).
#
# Every step runs even after a failure so the summary shows the full
# picture; the script exits non-zero when any step failed.
#
# Usage: tools/run_tier1.sh [preset ...]
#   With no arguments runs: default asan tsan, then the perf smoke.
#   Pass a subset (e.g. `tools/run_tier1.sh default`) to run fewer
#   presets; the perf smoke runs whenever the default preset is built.

set -uo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan tsan)
fi

summary=()
failed=0

step() {
  local name="$1"
  shift
  echo "=== tier-1: ${name} ==="
  if "$@"; then
    summary+=("PASS  ${name}")
  else
    summary+=("FAIL  ${name}")
    failed=1
  fi
}

if command -v python3 >/dev/null 2>&1; then
  step "docs lint (check_docs.py)" python3 tools/check_docs.py .
else
  summary+=("SKIP  docs lint (no python3)")
fi

for preset in "${presets[@]}"; do
  step "configure ${preset}" cmake --preset "${preset}"
  step "build ${preset}" cmake --build --preset "${preset}" -j "$(nproc)"
  step "ctest ${preset}" ctest --preset "${preset}" -j "$(nproc)"
done

for preset in "${presets[@]}"; do
  if [ "${preset}" = "default" ]; then
    step "perf smoke (kernel differential)" \
      ./build/bench/bench_kernel --db-vertices 800 --reps 2 --check \
      --json build/BENCH_kernel_smoke.json
    if command -v python3 >/dev/null 2>&1; then
      step "perf smoke (bench_compare.py)" \
        python3 tools/bench_compare.py build/BENCH_kernel_smoke.json \
        build/BENCH_kernel_smoke.json
    else
      summary+=("SKIP  perf smoke (no python3)")
    fi
  fi
done

echo
echo "=== tier-1 summary ==="
for line in "${summary[@]}"; do
  echo "  ${line}"
done
if [ "${failed}" -ne 0 ]; then
  echo "=== tier-1: FAILED ==="
  exit 1
fi
echo "=== tier-1: all steps passed (${presets[*]}) ==="

#!/usr/bin/env bash
# Regenerates the result transcripts:
#   bench_output.txt  - every bench binary at its default (scaled) settings
#                       (committed: EXPERIMENTS.md cites its tables)
#   results/test_output.txt - full ctest run (results/ is gitignored, so a
#                       test list can never go stale in the repo)
#   results/*.json    - machine-readable batches from the exp/-migrated benches
#   BENCH_*.json      - repo-root trajectory snapshots (engine throughput,
#                       workload fairness minima, peak RSS) whose git history
#                       tracks the perf/fairness trend across PRs
# Benches migrated onto the exp:: runner get --jobs $(nproc) (case-level
# parallelism; per-run seeds are thread-count independent, so the text
# tables are unchanged) and write their results.json into results/.
# Usage: tools/regen_results.sh [build-dir]
set -euo pipefail
BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"

# A regenerated transcript that silently omits a crashed bench is worse than
# no transcript: every failure below aborts the whole regeneration loudly.
fail() {
  echo "regen_results: FATAL: $*" >&2
  exit 1
}

cmake --build "$ROOT/$BUILD"

mkdir -p "$ROOT/results"

ctest --test-dir "$ROOT/$BUILD" 2>&1 | tee "$ROOT/results/test_output.txt"

# Benches migrated onto the exp/ runner (accept --jobs/--json).
exp_benches="bench_fig7_droptail bench_fig9_red bench_fig10_rtt bench_multisession bench_engine bench_robustness bench_adversary bench_workload bench_scale"
is_exp_bench() {
  local name="$1" b
  for b in $exp_benches; do [ "$b" = "$name" ] && return 0; done
  return 1
}

# Benches that also emit a repo-root trajectory snapshot. --timeout forks
# every run, as in CI's trajectory steps, so peak_rss_mib reads the largest
# single run in both places (in process with --jobs > 1 it would be the sum
# of concurrent runs); the hour is a cap, not an expected run length.
trajectory_args() {
  local traj="--timeout 3600 --trajectory"
  case "$1" in
    bench_engine)   echo "$traj $ROOT/BENCH_engine.json" ;;
    bench_workload) echo "$traj $ROOT/BENCH_workload.json" ;;
    bench_scale)    echo "$traj $ROOT/BENCH_scale.json" ;;
    *)              echo "" ;;
  esac
}

: > "$ROOT/bench_output.txt"
for b in "$ROOT/$BUILD"/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  name="$(basename "$b")"
  echo "########## $name" | tee -a "$ROOT/bench_output.txt"
  if is_exp_bench "$name"; then
    json="$ROOT/results/$name.json"
    rm -f "$json"
    set +e
    # shellcheck disable=SC2046  # trajectory_args is empty or four words
    "$b" --jobs "$JOBS" --json "$json" \
      $(trajectory_args "$name") 2>&1 \
      | tee -a "$ROOT/bench_output.txt"
    status=${PIPESTATUS[0]}
    set -e
    [ "$status" -eq 0 ] || fail "$name exited with status $status"
    [ -s "$json" ] || fail "$name emitted no JSON ($json missing or empty)"
    grep -q '"runs"' "$json" ||
      fail "$name JSON is malformed: no \"runs\" array in $json"
  else
    set +e
    "$b" 2>&1 | tee -a "$ROOT/bench_output.txt"
    status=${PIPESTATUS[0]}
    set -e
    [ "$status" -eq 0 ] || fail "$name exited with status $status"
  fi
  echo | tee -a "$ROOT/bench_output.txt"
done

# Crash-report summaries from any --isolate sweeps. Each report's header
# block (id, case, outcome, repro command) is folded into bench_output.txt
# so a regenerated transcript shows at a glance whether any run crashed.
{
  echo "########## crash reports (results/crashes)"
  found=0
  for r in "$ROOT/results/crashes"/*.crash.txt; do
    [ -f "$r" ] || continue
    found=1
    echo "--- $(basename "$r")"
    sed -n '1,10p' "$r"
  done
  [ "$found" -eq 1 ] || echo "(none)"
  echo
} | tee -a "$ROOT/bench_output.txt"

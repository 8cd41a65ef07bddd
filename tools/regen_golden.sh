#!/usr/bin/env bash
# Regenerates the golden smoke-output hashes in tests/golden/.
#
# Run from anywhere after an INTENTIONAL behaviour change, with a built
# tree (default ./build, override as $1); commit the resulting diff
# alongside the change so the golden_bench ctest entries pass again.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${1:-build}

# dir/name of every binary whose --smoke stdout is pinned; the hash lands
# in tests/golden/<name>.sha256.
goldens=(bench/bench_fig7_droptail bench/bench_fig8_signals
         bench/bench_fig9_red bench/bench_fig10_rtt bench/bench_multisession
         bench/bench_workload tests/topo_golden)
for g in "${goldens[@]}"; do
  b=${g##*/}
  bin="$build/$g"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $build)" >&2
    exit 1
  fi
  "$bin" --smoke | sha256sum | awk '{print $1}' > "tests/golden/$b.sha256"
  echo "tests/golden/$b.sha256 <- $(cat tests/golden/$b.sha256)"
done

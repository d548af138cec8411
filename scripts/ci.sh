#!/usr/bin/env bash
# Correctness matrix, split into named legs so the hosted pipeline
# (.github/workflows/ci.yml) can run them as parallel jobs while one
# local invocation still sweeps everything in order.
#
# Legs (run in this order when none is selected):
#   analyze  static analysis, fail-fast: build only cortex_analyzer and
#            run it (lock-rank / io-under-lock / guarded-by / layering /
#            contracts) plus cortex_lint and the script self-tests —
#            seconds, not minutes, so discipline violations die before
#            the build matrix spends CPU
#   build    gcc Release -Werror build + full ctest
#   scalar   CORTEX_SIMD=scalar full ctest on the same binaries — proves
#            the scalar kernel fallback serves identical results
#   bench    fresh --json bench runs diffed against committed baselines
#            (perf keys inside a wide tolerance band; deterministic keys
#            tightly — see scripts/bench_diff.py)
#   clang    clang RelWithDebInfo -Werror -Wthread-safety build + ctest
#            (skipped with a notice when clang++ is not installed)
#   asan     ASan+UBSan full ctest (CORTEX_SANITIZE=address,undefined;
#            native SIMD dispatch, so the vectorized kernels' loads and
#            tails are sanitizer-checked, not just the scalar path)
#   tsan     TSan full ctest (CORTEX_SANITIZE=thread, via tsan.sh)
#   contention
#            ClusterSmoke and test_cluster with four busy-loop processes
#            on the cores, in the default (RelWithDebInfo) build and in
#            Release: live migration must lose nothing under CPU
#            contention too, not only on an idle machine
#   lint     clang-tidy + cortex_lint + cortex_analyzer (scripts/lint.sh)
#
# Usage:
#   scripts/ci.sh                    # every leg
#   scripts/ci.sh --leg asan         # one leg; --leg is repeatable
#   scripts/ci.sh --quick            # analyze + build + scalar
#
# Build dirs live under $CORTEX_CI_DIR (default build-ci/), one per
# toolchain/sanitizer so objects never mix.  Legs that need the gcc
# Release binaries (scalar, bench, lint) build them on demand, so every
# leg is self-contained — exactly what an isolated CI job needs.  Pass
# -j<N> via CMAKE_BUILD_PARALLEL_LEVEL.  A per-leg wall-clock table
# prints on exit, pass or fail.
set -euo pipefail

cd "$(dirname "$0")/.."

CI_DIR="${CORTEX_CI_DIR:-build-ci}"
ALL_LEGS=(analyze build scalar bench clang asan tsan contention lint)

usage() {
  cat <<EOF
usage: scripts/ci.sh [--leg NAME]... [--quick]
  legs: ${ALL_LEGS[*]}
  --quick = analyze + build + scalar
  CORTEX_CI_DIR overrides the build-dir root (default build-ci)
EOF
  exit "${1:-0}"
}

leg_banner() {
  echo
  echo "==== ci.sh: $1 ===="
}

run_ctest() {
  ctest --test-dir "$1" --output-on-failure
}

# Configure + build the shared gcc Release tree.  Idempotent: warm
# object caches (ccache in CI) make repeat calls cheap, so dependent
# legs can call it unconditionally.
ensure_release() {
  cmake -B "$CI_DIR/gcc-release" -S . \
    -DCMAKE_BUILD_TYPE=Release -DCORTEX_WERROR=ON \
    -DCMAKE_CXX_COMPILER=g++
  cmake --build "$CI_DIR/gcc-release" -j
}

leg_analyze() {
  # Building just the analyzer target keeps this leg to seconds even on
  # a cold tree.
  cmake -B "$CI_DIR/gcc-release" -S . \
    -DCMAKE_BUILD_TYPE=Release -DCORTEX_WERROR=ON \
    -DCMAKE_CXX_COMPILER=g++
  cmake --build "$CI_DIR/gcc-release" -j --target cortex_analyzer
  "$CI_DIR/gcc-release/tools/cortex_analyzer" --root . \
    --baseline tools/cortex_analyzer/baseline.txt
  python3 scripts/cortex_lint.py src
  python3 scripts/test_cortex_lint.py
  python3 scripts/test_bench_diff.py
}

leg_build() {
  ensure_release
  run_ctest "$CI_DIR/gcc-release"
}

leg_scalar() {
  ensure_release
  CORTEX_SIMD=scalar run_ctest "$CI_DIR/gcc-release"
}

leg_bench() {
  ensure_release
  (cd "$CI_DIR/gcc-release" &&
    ./bench/bench_vector_ops --json >/dev/null &&
    ./bench/bench_concurrency --json --tasks=300 >/dev/null &&
    ./bench/bench_concurrency --json --probe-scaling --tasks=120 \
      --lookups-per-thread=1000 >/dev/null &&
    ./bench/bench_concurrency --json --insert-scaling >/dev/null &&
    ./bench/bench_ann --json >/dev/null &&
    ./bench/bench_cluster --json --tasks=120 --threads=4 >/dev/null &&
    ./bench/bench_telemetry --json --iters=500000 --tasks=200 --threads=4 \
      --repeats=2 >/dev/null &&
    ./bench/bench_sharding --json >/dev/null)
  local b
  for b in vector_ops concurrency concurrency_probe concurrency_insert \
           ann cluster telemetry sharding; do
    python3 scripts/bench_diff.py "BENCH_${b}.json" \
      "$CI_DIR/gcc-release/BENCH_${b}.json"
  done
}

leg_clang() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "ci.sh: clang++ not installed — leg skipped"
    return 0
  fi
  cmake -B "$CI_DIR/clang" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCORTEX_WERROR=ON \
    -DCMAKE_CXX_COMPILER=clang++
  cmake --build "$CI_DIR/clang" -j
  run_ctest "$CI_DIR/clang"
}

leg_asan() {
  cmake -B "$CI_DIR/asan-ubsan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCORTEX_WERROR=ON \
    -DCORTEX_SANITIZE=address,undefined
  cmake --build "$CI_DIR/asan-ubsan" -j
  # Fast-fail on the concurrency-heavy serving/telemetry tests before
  # the full sweep — they are the likeliest sanitizer tripwires.
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$CI_DIR/asan-ubsan" --output-on-failure \
      -R 'Telemetry|ConcurrentEngine|ServerEndToEnd|Epoch|IncrementalPublish|SnapshotTraffic|SnapshotLifetime|SnapshotDecoder'
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    run_ctest "$CI_DIR/asan-ubsan"
}

leg_tsan() {
  scripts/tsan.sh -R 'Telemetry|ConcurrentEngine|ServerEndToEnd|Epoch|IncrementalPublish|SnapshotTraffic|SnapshotLifetime'
  scripts/tsan.sh
}

# Runs "$@" with four busy-loop processes competing for the cores.  Each
# loop is bounded by timeout(1) and killed when the command returns.
with_busy_loops() {
  local pids=() i rc=0
  for i in 1 2 3 4; do
    timeout 1800 bash -c 'while :; do :; done' &
    pids+=("$!")
  done
  "$@" || rc=$?
  kill "${pids[@]}" 2>/dev/null || true
  wait "${pids[@]}" 2>/dev/null || true
  return "$rc"
}

leg_contention() {
  cmake -B "$CI_DIR/gcc-default" -S . -DCORTEX_WERROR=ON \
    -DCMAKE_CXX_COMPILER=g++
  cmake --build "$CI_DIR/gcc-default" -j
  ensure_release
  local dir
  for dir in "$CI_DIR/gcc-default" "$CI_DIR/gcc-release"; do
    with_busy_loops ctest --test-dir "$dir" --output-on-failure \
      -R '^(ClusterSmoke|ClusterTest\.)' --repeat until-fail:3
  done
}

leg_lint() {
  # lint.sh needs a configured build dir for compile_commands.json.
  ensure_release
  scripts/lint.sh "$CI_DIR/gcc-release"
}

# ------------------------------------------------------------ arguments
selected=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --leg)
      [[ $# -ge 2 ]] || { echo "ci.sh: --leg needs a name" >&2; exit 2; }
      selected+=("$2")
      shift 2
      ;;
    --quick)
      selected+=(analyze build scalar)
      shift
      ;;
    -h|--help)
      usage 0
      ;;
    *)
      echo "ci.sh: unknown argument '$1'" >&2
      usage 2
      ;;
  esac
done
[[ ${#selected[@]} -gt 0 ]] || selected=("${ALL_LEGS[@]}")

for name in "${selected[@]}"; do
  ok=0
  for l in "${ALL_LEGS[@]}"; do [[ "$l" == "$name" ]] && ok=1; done
  if [[ "$ok" -ne 1 ]]; then
    echo "ci.sh: unknown leg '$name' (legs: ${ALL_LEGS[*]})" >&2
    exit 2
  fi
done

# ------------------------------------------------------------- run legs
summary_names=()
summary_secs=()
summary_status=()

print_summary() {
  [[ ${#summary_names[@]} -gt 0 ]] || return 0
  echo
  echo "==== ci.sh: leg summary ===="
  printf '%-10s %8s  %s\n' "leg" "wall(s)" "status"
  local i
  for i in "${!summary_names[@]}"; do
    printf '%-10s %8s  %s\n' \
      "${summary_names[$i]}" "${summary_secs[$i]}" "${summary_status[$i]}"
  done
}
trap print_summary EXIT

for name in "${selected[@]}"; do
  leg_banner "$name"
  SECONDS=0
  # Subshell with its own errexit: a failure on ANY command inside the
  # leg fails the leg (a bare `leg_x || ...` would suspend -e inside the
  # function body and let later commands mask the failure).
  set +e
  (set -e; "leg_$name")
  rc=$?
  set -e
  summary_names+=("$name")
  summary_secs+=("$SECONDS")
  if [[ "$rc" -ne 0 ]]; then
    summary_status+=("FAIL")
    echo "ci.sh: leg '$name' FAILED" >&2
    exit 1
  fi
  summary_status+=("PASS")
done

echo
echo "ci.sh: ALL SELECTED LEGS PASSED (${selected[*]})"

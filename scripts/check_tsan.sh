#!/usr/bin/env bash
# Builds the concurrency-sensitive suites under ThreadSanitizer
# (-DCAPMAN_TSAN=ON) and runs them: the metrics registry (lock-free
# counters under concurrent writers), the work-claiming util::ThreadPool
# (one shared atomic index counter per dispatch), the sharded similarity
# solver (pool workers writing their own pair cells and per-worker
# counters), and the FleetRunner / FleetSupervisor thread-count tests
# (pool workers claiming shards and completing them under the checkpoint
# supervisor). Wired into CTest as the `tsan_smoke` test; run manually
# with:
#
#   scripts/check_tsan.sh [build-dir]      # default: build-tsan
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" -DCAPMAN_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$build_dir" -j \
      --target obs_metrics_test util_thread_pool_test \
               core_similarity_parallel_test sim_fleet_test >/dev/null

export TSAN_OPTIONS=halt_on_error=1

"$build_dir/tests/obs_metrics_test" --gtest_brief=1
"$build_dir/tests/util_thread_pool_test" --gtest_brief=1
"$build_dir/tests/core_similarity_parallel_test" --gtest_brief=1
"$build_dir/tests/sim_fleet_test" --gtest_brief=1 \
    --gtest_filter='FleetRunner.*Thread*:FleetSupervisor.*Thread*:FleetScheduling.*'

echo "check_tsan: thread-sanitized telemetry/concurrency suites passed"

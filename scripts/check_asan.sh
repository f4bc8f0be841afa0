#!/usr/bin/env bash
# Builds the actuator-path and unit-arithmetic test suites under
# AddressSanitizer + UBSan (-DCAPMAN_SANITIZE=ON) and runs them: the fast
# fault-injection / switch-facility / degradation-guard tests, plus the
# util::units strong types, the power-budget arbiter and the PowerConsumer
# shaping path — the surfaces where a signed overflow, float-cast overflow
# or invalid enum load would land first. Wired into CTest as the
# `sanitize_smoke` test; run manually with:
#
#   scripts/check_asan.sh [build-dir]      # default: build-asan
#
# The full-discharge-cycle tests are excluded — minutes each under ASan —
# but FaultInjection.FullChaosSmoke (a capped run with every fault knob
# on) keeps the whole engine+injector path covered.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

cmake -B "$build_dir" -S "$repo_root" -DCAPMAN_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$build_dir" -j \
      --target sim_faults_test battery_switcher_supercap_test \
               util_units_test core_power_budget_test \
               device_power_consumer_test >/dev/null

filter='FaultPlan.*:FaultySwitchFacility.*:SensorChannel.*:DegradationGuard.*'
filter="$filter:FaultInjection.FullChaosSmoke"
export ASAN_OPTIONS=detect_leaks=1
export UBSAN_OPTIONS=print_stacktrace=1

"$build_dir/tests/sim_faults_test" --gtest_filter="$filter" \
    --gtest_brief=1
"$build_dir/tests/battery_switcher_supercap_test" --gtest_brief=1
"$build_dir/tests/util_units_test" --gtest_brief=1
"$build_dir/tests/core_power_budget_test" --gtest_brief=1
"$build_dir/tests/device_power_consumer_test" --gtest_brief=1

echo "check_asan: sanitized fault/switch/units suites passed"

#!/usr/bin/env bash
# One-shot QA pipeline: every repository check in sequence with a summary
# table. Usage:
#
#   scripts/check_all.sh [--fast] [build-dir]       # default: build
#
# --fast runs only the checks that need no compilation — docs, format,
# every capman-lint rule except L5, the lint/schema self-tests — which
# finishes in seconds and is the right pre-commit loop. The full run adds
# the sanitizer rebuilds (asan+ubsan, tsan), clang-tidy, header hygiene,
# thread-safety, the fleet smoke, the crash-resume smoke, and the
# advisory observability-overhead check.
#
# Checks that need missing tooling (clang-tidy, clang-format) report SKIP
# rather than FAIL — the same exit-77 convention the CTest registrations
# use. Advisory wall-clock checks report WARN (exit 78) and never fail the
# run. Exits non-zero iff at least one check FAILed.
set -u

fast=0
if [ "${1:-}" = "--fast" ]; then
  fast=1
  shift
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

names=()
results=()
times=()
failures=0

run_check() {
  # run_check <name> <command...>
  local name="$1"
  shift
  local start end status
  echo "==> $name"
  start=$(date +%s)
  "$@"
  status=$?
  end=$(date +%s)
  names+=("$name")
  times+=("$((end - start))s")
  if [ "$status" -eq 0 ]; then
    results+=("PASS")
  elif [ "$status" -eq 77 ]; then
    results+=("SKIP")
  elif [ "$status" -eq 78 ]; then
    results+=("WARN")
  else
    results+=("FAIL")
    failures=$((failures + 1))
  fi
}

run_check docs            "$repo_root/scripts/check_docs.sh"
run_check format          "$repo_root/scripts/check_format.sh"
run_check capman-lint     python3 "$repo_root/scripts/capman_lint.py" \
                          --root "$repo_root" \
                          --rules L1,L2,L3,L4,L6,L7,L8
run_check lint-selftest   python3 "$repo_root/scripts/test_capman_lint.py"
run_check schema-selftest python3 \
                          "$repo_root/scripts/check_trace_schema.py" \
                          --self-test

if [ "$fast" -eq 0 ]; then
  run_check headers         python3 "$repo_root/scripts/capman_lint.py" \
                            --root "$repo_root" --rules L5
  run_check clang-tidy      "$repo_root/scripts/check_tidy.sh" "$build_dir"
  run_check thread-safety   "$repo_root/scripts/check_thread_safety.sh"
  run_check asan            "$repo_root/scripts/check_asan.sh"
  run_check tsan            "$repo_root/scripts/check_tsan.sh"

  # Small-fleet smoke: the FleetRunner bit-identity contract on 10^3
  # devices (bench_fleet_scaling --smoke; exit 77 = constrained machine).
  fleet_smoke() {
    local bench="$build_dir/bench/bench_fleet_scaling"
    if [[ ! -x "$bench" ]]; then
      echo "fleet-smoke: $bench not built; run cmake --build $build_dir" \
           "first" >&2
      return 1
    fi
    "$bench" --smoke
  }
  run_check fleet-smoke     fleet_smoke

  # Crash-resume smoke: SIGKILL a checkpointed fleet campaign, resume,
  # require byte-identical --json; torn/corrupt tails must roll back
  # (scripts/check_crash_resume.sh, the crash_resume_check CTest gate).
  crash_resume_smoke() {
    local fleet="$build_dir/examples/capman_fleet"
    if [[ ! -x "$fleet" ]]; then
      echo "crash-resume: $fleet not built; run cmake --build $build_dir" \
           "first" >&2
      return 1
    fi
    "$repo_root/scripts/check_crash_resume.sh" "$fleet"
  }
  run_check crash-resume    crash_resume_smoke

  # Observability overhead, advisory: the <5% wall-clock budget for full
  # decision tracing and sampler+recorder+health (min over repeats). Wall
  # clock on a shared machine is noise, so a miss is a WARN; the exact
  # gate on the sinks' deterministic work is the obs_overhead_smoke CTest.
  obs_overhead_advisory() {
    local bench="$build_dir/bench/bench_obs_overhead"
    if [[ ! -x "$bench" ]]; then
      echo "obs-overhead: $bench not built; run cmake --build $build_dir" \
           "first" >&2
      return 1
    fi
    local out work="$build_dir/obs_overhead_advisory"
    mkdir -p "$work"
    out="$(cd "$work" && "$bench" --smoke)" || return 1
    echo "$out" | grep "SMOKE"
    if echo "$out" | grep -q "SMOKE WARN"; then
      return 78
    fi
  }
  run_check obs-overhead    obs_overhead_advisory
fi

echo
echo "================ check_all summary ================"
printf '%-18s %-6s %s\n' "check" "result" "time"
printf '%-18s %-6s %s\n' "-----" "------" "----"
for i in "${!names[@]}"; do
  printf '%-18s %-6s %s\n' "${names[$i]}" "${results[$i]}" "${times[$i]}"
done
echo "==================================================="

if [ "$failures" -ne 0 ]; then
  echo "check_all: $failures check(s) FAILED" >&2
  exit 1
fi
echo "check_all: all checks passed (or skipped for missing tooling)"

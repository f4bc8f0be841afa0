#!/usr/bin/env bash
# Crash-resume gate: SIGKILL a fleet campaign mid-run, resume it, and
# require the resumed --json output to be byte-identical to an
# uninterrupted run — across more than one thread/shard layout — then
# corrupt the checkpoint tail and require resume to roll back to the
# last valid frame instead of crashing. Usage:
#
#   scripts/check_crash_resume.sh [path-to-capman_fleet]
#
# Registered as the crash_resume_check CTest gate and run by
# check_all.sh (full mode). capman_fleet --crash-after 3 injects the crash
# into the stock binary (it sets sim::FleetConfig::crash_after_shards, the
# knob in-process tests use).
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
fleet="${1:-$repo_root/build/examples/capman_fleet}"

if [[ ! -x "$fleet" ]]; then
  echo "check_crash_resume: $fleet not built; run cmake --build first" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

devices=80
failures=0

fail() {
  echo "check_crash_resume: FAIL: $*" >&2
  failures=$((failures + 1))
}

# Two thread/shard layouts: resumes must be layout-robust, and the
# reference for a given shard count is thread-count invariant.
for combo in "8 2" "5 1"; do
  read -r shards threads <<<"$combo"
  label="shards=$shards threads=$threads"
  ref_dir="$workdir/ref-$shards-$threads"
  crash_dir="$workdir/crash-$shards-$threads"
  mkdir -p "$ref_dir" "$crash_dir"

  # Uninterrupted reference (checkpointing ON, so the snapshot carries
  # the same checkpoint/* keys the resumed run will).
  if ! "$fleet" --devices "$devices" --shards "$shards" \
       --threads "$threads" --checkpoint-dir "$ref_dir" \
       --checkpoint-every 2 --json \
       >"$workdir/ref.json" 2>/dev/null; then
    fail "$label: reference run failed"
    continue
  fi

  # Crash mid-campaign: the run must die by SIGKILL (exit 137), leaving
  # a partial checkpoint behind.
  "$fleet" --crash-after 3 --devices "$devices" \
      --shards "$shards" --threads "$threads" \
      --checkpoint-dir "$crash_dir" --checkpoint-every 2 --json \
      >/dev/null 2>&1
  status=$?
  if [[ "$status" -ne 137 ]]; then
    fail "$label: crash run exited $status, expected 137 (SIGKILL)"
    continue
  fi
  if [[ ! -s "$crash_dir/fleet.ckpt" ]]; then
    fail "$label: no checkpoint file left behind by the crashed run"
    continue
  fi

  # Resume and require byte-identity; the stderr summary must prove the
  # checkpoint was actually used (a silent cold start would also match).
  if ! "$fleet" --devices "$devices" --shards "$shards" \
       --threads "$threads" --checkpoint-dir "$crash_dir" \
       --checkpoint-every 2 --resume --json \
       >"$workdir/resumed.json" 2>"$workdir/resumed.err"; then
    fail "$label: resume run failed"
    continue
  fi
  if ! grep -q "resumed" "$workdir/resumed.err"; then
    fail "$label: resume did not restore any shards (stderr: \
$(cat "$workdir/resumed.err"))"
    continue
  fi
  if ! cmp -s "$workdir/ref.json" "$workdir/resumed.json"; then
    fail "$label: resumed --json differs from the uninterrupted run"
    continue
  fi
  echo "check_crash_resume: $label OK (crash 137, resume byte-identical)"

  # Torn tail: chop bytes off the checkpoint; resume must roll back to
  # the last valid frame (stderr reports the discard) and still finish
  # byte-identical.
  size=$(wc -c <"$crash_dir/fleet.ckpt")
  truncate -s $((size - 13)) "$crash_dir/fleet.ckpt"
  if ! "$fleet" --devices "$devices" --shards "$shards" \
       --threads "$threads" --checkpoint-dir "$crash_dir" \
       --checkpoint-every 2 --resume --json \
       >"$workdir/torn.json" 2>"$workdir/torn.err"; then
    fail "$label: resume from a truncated checkpoint crashed"
    continue
  fi
  if ! grep -q "discarded" "$workdir/torn.err"; then
    fail "$label: truncated resume did not report a discarded frame"
    continue
  fi
  if ! cmp -s "$workdir/ref.json" "$workdir/torn.json"; then
    fail "$label: truncated-checkpoint resume differs from reference"
    continue
  fi

  # Corrupt tail: flip bytes inside the last frame; same requirement.
  crash2_dir="$workdir/corrupt-$shards-$threads"
  mkdir -p "$crash2_dir"
  "$fleet" --crash-after 3 --devices "$devices" \
      --shards "$shards" --threads "$threads" \
      --checkpoint-dir "$crash2_dir" --checkpoint-every 2 --json \
      >/dev/null 2>&1
  size=$(wc -c <"$crash2_dir/fleet.ckpt")
  printf 'XXXX' | dd of="$crash2_dir/fleet.ckpt" bs=1 \
      seek=$((size - 8)) conv=notrunc 2>/dev/null
  if ! "$fleet" --devices "$devices" --shards "$shards" \
       --threads "$threads" --checkpoint-dir "$crash2_dir" \
       --checkpoint-every 2 --resume --json \
       >"$workdir/corrupt.json" 2>/dev/null; then
    fail "$label: resume from a corrupted checkpoint crashed"
    continue
  fi
  if ! cmp -s "$workdir/ref.json" "$workdir/corrupt.json"; then
    fail "$label: corrupted-checkpoint resume differs from reference"
    continue
  fi
  echo "check_crash_resume: $label OK (torn + corrupt tails rolled back)"
done

# Mismatched config refusal: resuming with a different seed must refuse
# (exit 1 with the fingerprint message), not silently merge foreign state.
refuse_dir="$workdir/refuse"
mkdir -p "$refuse_dir"
"$fleet" --crash-after 3 --devices "$devices" --shards 8 \
    --threads 2 --checkpoint-dir "$refuse_dir" --checkpoint-every 2 \
    --json >/dev/null 2>&1
"$fleet" --devices "$devices" --shards 8 --threads 2 --seed 7 \
    --checkpoint-dir "$refuse_dir" --checkpoint-every 2 --resume --json \
    >/dev/null 2>"$workdir/refuse.err"
status=$?
if [[ "$status" -ne 1 ]] || ! grep -q "fingerprint mismatch" \
    "$workdir/refuse.err"; then
  fail "mismatched-config resume exited $status without refusing"
else
  echo "check_crash_resume: fingerprint-mismatch refusal OK"
fi

if [[ "$failures" -ne 0 ]]; then
  echo "check_crash_resume: $failures case(s) FAILED" >&2
  exit 1
fi
echo "check_crash_resume: all cases passed"

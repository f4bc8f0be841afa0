#!/usr/bin/env python3
"""Diff BENCH_<name>.json bench artifacts against the committed baseline.

Every bench binary writes a headline-number artifact when run with
`--json` (bench/bench_common.h, class BenchJson):

    {"name": "<bench>", "seed": N, "metrics": {"key": value, ...}}

The committed baselines live in bench/baselines/<name>.json. This script
compares each artifact's metrics against its baseline:

  * deterministic metrics (counts, ratios, deviations produced by the
    fixed-seed simulation) must match to a relative tolerance of 1e-9 —
    a drift here means the simulation's behaviour changed and either the
    change is a bug or the baseline must be consciously regenerated;
  * metrics listed in NOISY (wall-clock-derived speedups, throughput,
    overhead percentages) are reported but never gated — they depend on
    the machine the bench ran on;
  * a baseline metric missing from the artifact is a failure (a bench
    silently stopped reporting a headline number);
  * an artifact metric missing from the baseline is a warning (regenerate
    the baseline to start gating it).

Regenerate a baseline after an intentional behaviour change with:

    ./build/bench/bench_<name> [--smoke] --json
    cp BENCH_<name>.json bench/baselines/<name>.json

(fleet_scaling's baseline is generated in --smoke mode — the artifact
records curve_devices, so a full-mode artifact diffs loudly rather than
silently.)

Usage:
    scripts/check_bench_regress.py [--baseline-dir DIR] [--artifact-dir DIR]
                                   [name ...]   # default: every baseline
    scripts/check_bench_regress.py --self-test  # fixture accept/reject run
"""

import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE_DIR = REPO_ROOT / "bench" / "baselines"

# Relative tolerance for deterministic metrics. The simulation is
# bit-deterministic for a fixed seed and the artifact serialises through
# to_chars round-trippably, so anything beyond ULP noise is a real change.
REL_TOL = 1e-9

# (bench name, metric key) pairs that are machine-dependent by
# construction: reported for the record, never gated.
NOISY = {
    ("similarity_scaling", "speedup_x4_96"),
    ("fleet_scaling", "devices_per_sec_best"),
    ("fleet_scaling", "checkpoint_overhead_pct"),
    ("obs_overhead", "overhead_decisions_pct"),
    ("obs_overhead", "overhead_time_dim_pct"),
}
# bench_fleet_scaling stage 2a: engine steps/sec and devices/sec per
# policy at 1 and 2 workers, all wall-clock throughput.
NOISY |= {
    ("fleet_scaling", f"{policy}_{unit}_per_sec_{workers}w")
    for policy in ("dual", "capman", "oracle", "heuristic")
    for unit in ("steps", "devices")
    for workers in (1, 2)
}


def load(path: Path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    for key in ("name", "seed", "metrics"):
        if key not in doc:
            raise ValueError(f"{path}: missing top-level key '{key}'")
    if not isinstance(doc["metrics"], dict):
        raise ValueError(f"{path}: 'metrics' is not an object")
    return doc


def close(a: float, b: float) -> bool:
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) <= REL_TOL * scale


def check_one(name: str, baseline_path: Path, artifact_path: Path) -> list:
    """Returns a list of failure strings (empty = pass)."""
    failures = []
    try:
        baseline = load(baseline_path)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        return [f"{name}: cannot load baseline: {err}"]
    try:
        artifact = load(artifact_path)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        return [f"{name}: cannot load artifact: {err}"]

    if artifact["name"] != baseline["name"]:
        failures.append(
            f"{name}: artifact name '{artifact['name']}' != baseline "
            f"'{baseline['name']}'"
        )
    if artifact["seed"] != baseline["seed"]:
        failures.append(
            f"{name}: artifact seed {artifact['seed']} != baseline seed "
            f"{baseline['seed']} (deterministic metrics are only comparable "
            "at the same seed)"
        )
        return failures

    base_metrics = baseline["metrics"]
    art_metrics = artifact["metrics"]
    for key, expected in base_metrics.items():
        if key not in art_metrics:
            failures.append(f"{name}: metric '{key}' missing from artifact")
            continue
        actual = art_metrics[key]
        if (name, key) in NOISY:
            print(f"  [noisy] {name}.{key}: {actual} (baseline {expected}, "
                  "not gated)")
            continue
        if not close(float(expected), float(actual)):
            failures.append(
                f"{name}: metric '{key}' = {actual}, baseline {expected} "
                f"(rel tol {REL_TOL})"
            )
    for key in art_metrics:
        if key not in base_metrics:
            print(f"  [warn] {name}: new metric '{key}' not in baseline — "
                  "regenerate bench/baselines to gate it")
    return failures


def run(baseline_dir: Path, artifact_dir: Path, names: list) -> int:
    if not names:
        names = sorted(p.stem for p in baseline_dir.glob("*.json"))
    if not names:
        print(f"error: no baselines under {baseline_dir}", file=sys.stderr)
        return 2
    all_failures = []
    for name in names:
        baseline_path = baseline_dir / f"{name}.json"
        artifact_path = artifact_dir / f"BENCH_{name}.json"
        failures = check_one(name, baseline_path, artifact_path)
        status = "FAIL" if failures else "ok"
        print(f"  {name}: {status}")
        all_failures.extend(failures)
    for failure in all_failures:
        print(f"FAIL: {failure}")
    if not all_failures:
        print(f"check_bench_regress: {len(names)} artifact(s) match baseline")
    return 1 if all_failures else 0


# ---------------------------------------------------------------------------
# --self-test: fixture accept/reject matrix (no bench binaries needed).
# ---------------------------------------------------------------------------

def write_doc(path: Path, name: str, seed: int, metrics: dict) -> None:
    path.write_text(
        json.dumps({"name": name, "seed": seed, "metrics": metrics}) + "\n",
        encoding="utf-8",
    )


def self_test() -> int:
    cases_failed = 0

    def expect(label: str, got: int, want: int) -> None:
        nonlocal cases_failed
        if got != want:
            print(f"SELF-TEST FAIL: {label}: exit {got}, expected {want}")
            cases_failed += 1
        else:
            print(f"  self-test ok: {label}")

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "baselines"
        art = Path(tmp) / "artifacts"
        base.mkdir()
        art.mkdir()

        metrics = {"count": 7409.0, "ratio": 0.330437200253697}
        write_doc(base / "demo.json", "demo", 42, metrics)

        # 1. Identical artifact passes.
        write_doc(art / "BENCH_demo.json", "demo", 42, dict(metrics))
        expect("identical artifact", run(base, art, ["demo"]), 0)

        # 2. A perturbed deterministic metric fails.
        write_doc(art / "BENCH_demo.json", "demo", 42,
                  {"count": 7410.0, "ratio": metrics["ratio"]})
        expect("perturbed metric", run(base, art, ["demo"]), 1)

        # 3. A missing baseline metric fails.
        write_doc(art / "BENCH_demo.json", "demo", 42, {"count": 7409.0})
        expect("missing metric", run(base, art, ["demo"]), 1)

        # 4. A seed mismatch fails (values are not comparable).
        write_doc(art / "BENCH_demo.json", "demo", 43, dict(metrics))
        expect("seed mismatch", run(base, art, ["demo"]), 1)

        # 5. A noisy metric may drift freely.
        write_doc(base / "obs_overhead.json", "obs_overhead", 42,
                  {"decisions": 7409.0, "overhead_decisions_pct": 4.3})
        write_doc(art / "BENCH_obs_overhead.json", "obs_overhead", 42,
                  {"decisions": 7409.0, "overhead_decisions_pct": 9.9})
        expect("noisy metric drift", run(base, art, ["obs_overhead"]), 0)

        # 6. An extra artifact metric warns but passes.
        write_doc(art / "BENCH_demo.json", "demo", 42,
                  {**metrics, "new_metric": 1.0})
        expect("extra metric", run(base, art, ["demo"]), 0)

        # 7. A missing artifact file fails.
        (art / "BENCH_demo.json").unlink()
        expect("missing artifact file", run(base, art, ["demo"]), 1)

    if cases_failed:
        print(f"check_bench_regress --self-test: {cases_failed} case(s) FAILED")
        return 1
    print("check_bench_regress --self-test: all cases passed")
    return 0


def main(argv: list) -> int:
    baseline_dir = DEFAULT_BASELINE_DIR
    artifact_dir = Path.cwd()
    names = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--self-test":
            return self_test()
        if arg == "--baseline-dir":
            i += 1
            if i >= len(argv):
                print("error: --baseline-dir requires a value", file=sys.stderr)
                return 2
            baseline_dir = Path(argv[i])
        elif arg == "--artifact-dir":
            i += 1
            if i >= len(argv):
                print("error: --artifact-dir requires a value", file=sys.stderr)
                return 2
            artifact_dir = Path(argv[i])
        elif arg.startswith("-"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            names.append(arg)
        i += 1
    return run(baseline_dir, artifact_dir, names)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

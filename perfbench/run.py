#!/usr/bin/env python3
"""Build the simulator and run one workload of its end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. --self-test builds and runs the benchmark's unit
tests and checks BENCHMARK.json against the benchmark's own metric catalogue.
See perfbench/README.md for the workloads and metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configure once, then build `target`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found: run from a full checkout "
             "(src/ next to perfbench/)", 2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out


def self_test():
    out = build("perfbench_tests")
    tests = subprocess.run([os.path.join(out, "perfbench_tests")])
    out = build("capman_perfbench")
    described = json.loads(subprocess.run(
        [os.path.join(out, "capman_perfbench"), "--describe"],
        stdout=subprocess.PIPE, check=True, text=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []
    if [w["name"] for w in declared["workloads"]] != described["workloads"]:
        problems.append("workload names differ from the benchmark's")
    for key in ("end_to_end", "per_layer"):
        have = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        want = {m["name"]: (m["unit"], m["better"]) for m in described[key]}
        if have != want:
            missing = sorted(set(want) - set(have))
            extra = sorted(set(have) - set(want))
            problems.append(f"{key} metrics differ: missing {missing}, "
                            f"extra {extra}, or a unit/direction changed")
    for problem in problems:
        print(f"BENCHMARK.json: {problem}", file=sys.stderr)
    ok = tests.returncode == 0 and not problems
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    out = build("capman_perfbench")
    # The benchmark parses and validates its own arguments (exit 2 on a
    # usage error); its stdout is passed through untouched.
    return subprocess.run([os.path.join(out, "capman_perfbench")] + argv,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

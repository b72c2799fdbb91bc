#!/usr/bin/env python3
"""Builds the fft3d benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run it from the root of a checkout. The first run configures and builds
perfbench/ (which pulls in the program's src/) under $CARGO_TARGET_DIR
(default .bench_build) in the checkout; later runs only rebuild what
changed. Build output goes to stderr. The benchmark's stdout is passed
through; its last line is the JSON result, which is checked against
BENCHMARK.json before this script exits with the benchmark's own code.
The workloads in DROPPED still run when named, but BENCHMARK.json leaves
them out; every run lists them with the reason.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Workloads the binary still runs (and the traced run still covers) but
# BENCHMARK.json leaves out, and why. Every run prints this list.
DROPPED = {
    "sim_base_1024": "left out of BENCHMARK.json so the two kept workloads "
                     "can run 55 s each: at 20 s the host's slow stretches "
                     "spread wall_s past its 0.25 bound; its layers stay "
                     "in the traced run and in sim_opt_4096",
    "tune_2048": "left out of BENCHMARK.json for the same run-length "
                 "reason; the tuner, evaluator and pool stay in the traced "
                 "run",
    "cluster_4x": "left out of BENCHMARK.json for the same run-length "
                  "reason; the cluster, fault and fft layers stay in the "
                  "traced run",
}


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", directory, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(step)}")
    return os.path.join(directory, "perfbench")


def run(binary, args, out_dir):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    last = ""
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                sys.stdout.write(line)
                sys.stdout.flush()
                if line.strip():
                    last = line
        finally:
            watchdog.cancel()
            code = proc.wait()
    return code, last


def check_result(line, spec, traced):
    """Returns a list of ways the result line breaks the BENCHMARK.json
    format: its keys, its counts, and the metric names and units."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are not {sorted(RESULT_KEYS)}"]
    errors = []
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            errors.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted is below 1")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append("metrics differ from BENCHMARK.json: missing "
                      f"{sorted(set(want) - set(got))}, extra "
                      f"{sorted(set(got) - set(want))}")
    for name, metric in got.items():
        if name in want and metric.get("unit") != want[name]:
            errors.append(f"{name} has unit {metric.get('unit')!r}, "
                          f"want {want[name]!r}")
        if not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{name} has no numeric value")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources beside {HERE}; run from a full checkout")
    if not os.path.exists(spec_path):
        fail(f"missing {spec_path}")
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    known = {w["name"] for w in spec["workloads"]} | set(DROPPED)
    if args.workload not in known:
        fail(f"unknown workload {args.workload!r}")
    for name, why in DROPPED.items():
        print(f"# dropped workload {name}: {why}")

    directory = build_dir()
    binary = build(directory)
    code, last = run(binary, args, directory)
    if code not in (0, 1):
        fail(f"benchmark exited with {code}", code if code > 1 else 4)
    errors = check_result(last, spec, args.trace == 1)
    for error in errors:
        print(f"run.py: {error}", file=sys.stderr)
    if errors:
        sys.exit(3)
    sys.exit(code)


if __name__ == "__main__":
    main()

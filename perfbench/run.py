#!/usr/bin/env python3
"""Build and run the harmony benchmark.

    python3 perfbench/run.py --workload <tune_affine|tune_stochastic>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds the
perfbench package (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench; later calls rebuild only what changed.  Each call
runs the benchmark's self-tests, then the workload, and forwards its
output: one line per metric, then one JSON object as the last line of
standard output.  Traced runs (--trace 1) also leave their spans in
.bench_build/perfbench/trace-<workload>-<seed>.json.

Exit status: 0 when every reply passed its check; 1 when one did not; 3,
without a result, when a percentile has fewer than ten samples beyond it
(the run measured nothing comparable); other non-zero codes when the
program cannot be built (for instance when the library sources under
src/ are absent), a self-test fails or the output is malformed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("tune_affine", "tune_stochastic")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def step(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-8000:])
        log("failed: " + " ".join(cmd))
        return False
    return True


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("harmony sources not found under src/; nothing to build")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return step(["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", "4"], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    if not step([BINARY, "--selftest"], RUN_TIMEOUT_S):
        return 7

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("workload run timed out")
        return 4
    out = proc.stdout.decode(errors="replace")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode == 3:
        log("the run produced no result")
        return 3

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        log("the last output line is not a result object")
        return 5
    want = expected_metrics(args.trace)
    if got != want:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return 6
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload scan_mix --seed 1 --seconds 30 --trace 0

The engine is compiled from ./src together with the benchmark program in
perfbench/src (CMake, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. The program prints a human-readable report and, as
its last line, one JSON object {"correct", "attempted", "failed", "metrics"};
this script passes its output through and exits non-zero when the build or
the run fails or the last line is not such an object. The program keeps its
determinism digests, and the traced run (--trace 1) its spans, under the
build directory's out/ folder.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("scan_mix", "lookup_wire", "read_write")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isdir(os.path.join(root, "src")):
        fail("no engine sources: run from the root of a checkout")
    bench_src = os.path.join(root, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir, "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark program exited with code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the load generator (perfbench/CMakeLists.txt, which compiles the
repository's src/ tree) into .bench_build/perfbench, runs one workload in
its own process, and relays its output. The last stdout line is the JSON
result: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload warm_head --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger
(spans are written to .bench_build/perfbench/spans-<workload>-<seed>.tsv).
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("warm_head", "cold_tail")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_loadgen")
RUN_TIMEOUT_S = 170


def build():
    """Configures on first use, then brings the binary up to date."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(done.stdout)
        sys.stderr.write("perfbench: load generator printed no result "
                         "(exit %d)\n" % done.returncode)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

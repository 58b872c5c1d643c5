#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Runs every workload briefly in both modes through perfbench/run.py and
checks that the result names every metric of BENCHMARK.json with its unit,
that no answer was wrong, and that the traced run shows each workload
loading the layer it was chosen for.

    python3 perfbench/selftest.py [--workload NAME] [--seconds S]
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer_checks(workload, m):
    """The property each workload was chosen for, from the traced run."""
    v = {name: entry["value"] for name, entry in m.items()}
    request = v["trace.request_us"]
    checks = [("ledger leaves under 5% unaccounted",
               v["ledger.unaccounted_share"] < 0.05)]
    if workload == "warm_head":
        checks.append(("fetch + exec >= half of a traced request",
                       v["mediator.fetch_us"] + v["mediator.exec_us"]
                       >= 0.5 * request))
        checks.append(("plan-cache hit ratio is 1",
                       v["service.hit_ratio"] == 1.0))
    elif workload == "cold_tail":
        checks.append(("plan search >= half of a traced request",
                       v["rewrite.plan_search_us"] >= 0.5 * request))
        checks.append(("0 < maint.retained_ratio < 1",
                       0 < v["maint.retained_ratio"] < 1))
        checks.append(("maint.replans_per_publish > 0",
                       v["maint.replans_per_publish"] > 0))
    return checks


def run(workload, trace, seconds, spec):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds",
               str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    failures = []
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return ["no JSON result (exit %d)" % done.returncode]
    if done.returncode != 0:
        failures.append("exit code %d" % done.returncode)
    if result.get("correct") is not True or result.get("failed") != 0:
        failures.append("answers not all correct: %s" % {
            k: result.get(k) for k in ("correct", "attempted", "failed")})
    if not result.get("attempted", 0) >= 1:
        failures.append("nothing attempted")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        failures.append("metric names differ from BENCHMARK.json: %s" %
                        sorted(set(metrics) ^ {m["name"] for m in expected}))
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            failures.append("%s: unit %r, expected %r" %
                            (m["name"], got.get("unit"), m["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            failures.append("%s: no numeric value" % m["name"])
    if trace and not failures:
        failures += ["traced run: not %s" % name
                     for name, ok in layer_checks(workload, metrics) if not ok]
    return failures


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    failed = False
    for workload in [args.workload] if args.workload else names:
        for trace in (0, 1):
            failures = run(workload, trace, args.seconds, spec)
            print("%-14s trace %d: %s" % (workload, trace,
                                          "ok" if not failures else "FAIL"))
            for failure in failures:
                print("    " + failure)
            failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

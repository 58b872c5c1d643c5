#!/usr/bin/env python3
"""Gate benchmark results against a committed baseline and the gate table.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json \\
        [--tolerance 0.10] [--min-us 100] [--skip REGEX]

Both files are Google Benchmark ``--benchmark_format=json`` outputs. One
call runs every gate that belongs to BASELINE and exits 1 when any fails.
Under ``--benchmark_repetitions`` each benchmark name is judged on the
median of its repetition rows (aggregate rows are ignored), so no single
repetition decides a gate.

Baseline gate (machine-normalized): CI machines differ in speed run to
run, so each benchmark's current/baseline time ratio is divided by the
median ratio across all compared benchmarks (the machine factor) before
applying the tolerance. A benchmark fails when its normalized ratio
exceeds ``1 + --tolerance``. Excluded:
  - benchmarks whose baseline time is below ``--min-us`` (timer noise),
  - names matching ``--skip`` (default ``Parallel.*/(2|4|8)$``):
    multi-worker sweeps whose wall clock depends on worker scheduling and
    host core count, which CI does not control. The ``parallelism=1`` rows
    of the same sweeps stay gated.

Paired gates (GATES below): benchmarks that run two variants interleaved
within one iteration export a ratio counter, and the row holds it to a
fixed bound. Pairing inside the benchmark is what makes a few-percent
bound meaningful; two separately-timed rows on a shared CI host drift by
far more. A row applies to every benchmark named PREFIX or PREFIX/<args>
in CURRENT when BASELINE's file name is the row's bench file; rows whose
noise counter is below ``--min-us`` are skipped as timer noise.

Every gate fails when it measured nothing: a renamed benchmark or a
dropped counter must not turn a gate into a silent pass.

Standard library only; no third-party packages.
"""

import argparse
import json
import operator
import os
import re
import statistics
import sys

_UNIT_TO_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}

_OPS = {"<=": operator.le, ">=": operator.ge}

# (bench file, name prefix, counter, op, bound, noise counter or None)
GATES = [
    # Resilience tax of breakers + hedging on the fault-free serving path.
    ("BENCH_service.json", "BM_ServeResilientOverhead", "overhead", "<=",
     1.05, "plain_us"),
    # CL-SHARD: 4-shard over 1-shard throughput.
    ("BENCH_service.json", "BM_ClusterScaling", "scaling", ">=", 2.5,
     "shard1_us"),
    # CL-MAINT: a single-view edit keeps the plan cache warm.
    ("BENCH_service.json", "BM_MaintSingleViewEdit", "retained", ">=", 0.90,
     None),
    ("BENCH_service.json", "BM_MaintSingleViewEdit", "warmhit_gain", ">=",
     5.0, None),
    # Tracing + metrics tax on the sequential rewrite path.
    ("BENCH_rewrite.json", "BM_RewriteObserved", "overhead", "<=", 1.05,
     "plain_us"),
    # Compiled plan-set execution over the tree walker (k=7 workload).
    ("BENCH_rewrite.json", "BM_EvalIR/3", "speedup", ">=", 1.5, "tree_us"),
]


def load_rows(path):
    """Returns {benchmark name: {field: value}} with the real time in
    microseconds (``real_us``) and every numeric counter, each the median
    over that name's repetition rows."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    samples = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        fields = samples.setdefault(bench["name"], {})
        for key, value in bench.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                fields.setdefault(key, []).append(value)
        unit = _UNIT_TO_US.get(bench.get("time_unit", "ns"))
        if unit is not None and "real_time" in bench:
            fields.setdefault("real_us", []).append(bench["real_time"] * unit)
    return {name: {key: statistics.median(values)
                   for key, values in fields.items()}
            for name, fields in samples.items()}


def check_baseline(current, baseline, tolerance, min_us, skip):
    """The machine-normalized baseline gate. Returns True when it holds."""
    compared = {}
    for name, base in sorted(baseline.items()):
        if "real_us" not in base or "real_us" not in current.get(name, {}):
            continue
        if skip.search(name) or base["real_us"] < min_us:
            continue
        compared[name] = current[name]["real_us"] / base["real_us"]
    if not compared:
        print("baseline: no comparable benchmarks; gate FAILS "
              "(nothing measured)")
        return False

    machine_factor = statistics.median(compared.values())
    print(f"baseline: {len(compared)} benchmarks compared; "
          f"machine factor (median ratio) = {machine_factor:.3f}")
    failures = []
    for name, ratio in sorted(compared.items()):
        normalized = ratio / machine_factor
        marker = ""
        if normalized > 1.0 + tolerance:
            failures.append(name)
            marker = "  << REGRESSION"
        print(f"  {name}: {baseline[name]['real_us']:.0f}us -> "
              f"{current[name]['real_us']:.0f}us "
              f"(x{ratio:.2f}, normalized x{normalized:.2f}){marker}")
    if failures:
        print(f"{len(failures)} benchmark(s) regressed more than "
              f"{tolerance:.0%} after machine normalization")
        return False
    print("no regressions beyond tolerance")
    return True


def check_gate(rows, prefix, counter, op, bound, noise, min_us):
    """One GATES row over CURRENT's rows. Returns True when it holds."""
    print(f"{prefix}: {counter} {op} {bound}")
    measured = 0
    failures = []
    for name, fields in sorted(rows.items()):
        if name != prefix and not name.startswith(prefix + "/"):
            continue
        if counter not in fields:
            print(f"  {name}: no `{counter}` counter; skipped")
            continue
        if noise is not None and fields.get(noise, 0.0) < min_us:
            continue
        measured += 1
        value = fields[counter]
        marker = ""
        if not _OPS[op](value, bound):
            failures.append(name)
            marker = "  << OUT OF BOUND"
        print(f"  {name}: {counter} = {value:.3f}{marker}")
    if not measured:
        print("  no comparable rows; gate FAILS (nothing measured)")
        return False
    if failures:
        print(f"  {len(failures)} of {measured} row(s) out of bound")
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh benchmark JSON")
    parser.add_argument("baseline", help="committed baseline JSON; its file "
                                         "name selects the GATES rows")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed normalized slowdown (default 0.10)")
    parser.add_argument("--min-us", type=float, default=100.0,
                        help="ignore rows whose baseline time (or paired "
                             "noise counter) is below this")
    parser.add_argument("--skip", default=r"Parallel.*/(2|4|8)$",
                        help="regex of benchmark names the baseline gate "
                             "excludes")
    args = parser.parse_args(argv)

    current = load_rows(args.current)
    held = check_baseline(current, load_rows(args.baseline), args.tolerance,
                          args.min_us, re.compile(args.skip))
    bench = os.path.basename(args.baseline)
    for gate_bench, prefix, counter, op, bound, noise in GATES:
        if gate_bench == bench:
            held = check_gate(current, prefix, counter, op, bound, noise,
                              args.min_us) and held
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test for check_bench_regression.py.

Feeds synthetic Google Benchmark JSON to the script and asserts its exit
code: every GATES row at, just inside and just outside its bound, an empty
match, rows below the noise floor, repeated rows (judged on their median),
and the machine-normalized baseline gate.

Usage:
    python3 scripts/check_bench_regression_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SCRIPT = os.path.join(_HERE, "check_bench_regression.py")
sys.path.insert(0, _HERE)

from check_bench_regression import GATES  # noqa: E402

_EPS = 1e-6
_FILLERS = [f"BM_Filler/{i}" for i in range(5)]


def row(name, real_us=1000.0, **counters):
    bench = {"name": name, "run_type": "iteration", "real_time": real_us,
             "cpu_time": real_us, "time_unit": "us"}
    bench.update(counters)
    return bench


def passing_rows(bench_file):
    """One row per GATES row of bench_file, well inside its bound and
    above its noise floor, plus filler rows for the baseline gate."""
    rows = {name: row(name) for name in _FILLERS}
    for gate_bench, prefix, counter, op, bound, noise in GATES:
        if gate_bench != bench_file:
            continue
        fields = rows.setdefault(prefix, row(prefix))
        fields[counter] = bound * (0.5 if op == "<=" else 2.0)
        if noise is not None:
            fields[noise] = 200.0
    return rows


class GateScriptTest(unittest.TestCase):

    def run_gate(self, bench_file, current_rows, baseline_rows=None):
        """Exit code of the script on current_rows against
        baseline_rows (default: the passing rows of bench_file)."""
        if baseline_rows is None:
            baseline_rows = list(passing_rows(bench_file).values())
        with tempfile.TemporaryDirectory() as tmp:
            current = os.path.join(tmp, "current.json")
            baseline = os.path.join(tmp, bench_file)
            for path, rows in ((current, current_rows),
                               (baseline, baseline_rows)):
                with open(path, "w", encoding="utf-8") as f:
                    json.dump({"benchmarks": rows}, f)
            return subprocess.run(
                [sys.executable, _SCRIPT, current, baseline],
                stdout=subprocess.DEVNULL, check=False).returncode

    def with_value(self, gate, value, repeat=1):
        """The passing rows of the gate's bench file with the gate's
        counter set to value (on repeat repetition rows)."""
        bench_file, prefix, counter = gate[0], gate[1], gate[2]
        rows = passing_rows(bench_file)
        target = dict(rows.pop(prefix), **{counter: value})
        return list(rows.values()) + [dict(target) for _ in range(repeat)]

    def test_bounds_are_the_documented_ones(self):
        self.assertEqual(
            {(g[1], g[2]): (g[3], g[4], g[5]) for g in GATES},
            {("BM_ServeResilientOverhead", "overhead"): ("<=", 1.05,
                                                         "plain_us"),
             ("BM_ClusterScaling", "scaling"): (">=", 2.5, "shard1_us"),
             ("BM_MaintSingleViewEdit", "retained"): (">=", 0.90, None),
             ("BM_MaintSingleViewEdit", "warmhit_gain"): (">=", 5.0, None),
             ("BM_RewriteObserved", "overhead"): ("<=", 1.05, "plain_us"),
             ("BM_EvalIR/3", "speedup"): (">=", 1.5, "tree_us")})

    def test_every_gate_row_at_inside_and_outside_its_bound(self):
        for gate in GATES:
            op, bound = gate[3], gate[4]
            inside = bound - _EPS if op == "<=" else bound + _EPS
            outside = bound + _EPS if op == "<=" else bound - _EPS
            with self.subTest(gate=gate[:3]):
                self.assertEqual(self.run_gate(gate[0], self.with_value(
                    gate, bound)), 0)
                self.assertEqual(self.run_gate(gate[0], self.with_value(
                    gate, inside)), 0)
                self.assertEqual(self.run_gate(gate[0], self.with_value(
                    gate, outside)), 1)

    def test_empty_match_fails_every_gate_row(self):
        for gate in GATES:
            bench_file, prefix = gate[0], gate[1]
            rows = passing_rows(bench_file)
            del rows[prefix]
            with self.subTest(gate=gate[:3]):
                self.assertEqual(self.run_gate(bench_file,
                                               list(rows.values())), 1)

    def test_rows_below_the_noise_floor_measure_nothing(self):
        for gate in GATES:
            bench_file, prefix, noise = gate[0], gate[1], gate[5]
            if noise is None:
                continue
            rows = passing_rows(bench_file)
            rows[prefix][noise] = 99.0
            with self.subTest(gate=gate[:3]):
                self.assertEqual(self.run_gate(bench_file,
                                               list(rows.values())), 1)

    def test_repeated_rows_are_judged_on_their_median(self):
        for gate in GATES:
            op, bound, counter = gate[3], gate[4], gate[2]
            good = bound * (0.5 if op == "<=" else 2.0)
            bad = bound * (2.0 if op == "<=" else 0.5)
            with self.subTest(gate=gate[:3]):
                # The last repetition alone would fail the gate.
                rows = self.with_value(gate, good, repeat=2)
                rows.append(dict(rows[-1], **{counter: bad}))
                self.assertEqual(self.run_gate(gate[0], rows), 0)
                # The last repetition alone would pass it.
                rows = self.with_value(gate, bad, repeat=2)
                rows.append(dict(rows[-1], **{counter: good}))
                self.assertEqual(self.run_gate(gate[0], rows), 1)

    def test_baseline_gate_normalizes_and_uses_the_median(self):
        bench_file = "BENCH_rewrite.json"

        def scaled(factor, slow_name=None, slow=1.0):
            rows = passing_rows(bench_file)
            for fields in rows.values():
                fields["real_time"] = 1000.0 * factor
            if slow_name is not None:
                rows[slow_name]["real_time"] = 1000.0 * factor * slow
            return list(rows.values())

        # A uniformly 3x slower machine is not a regression.
        self.assertEqual(self.run_gate(bench_file, scaled(3.0)), 0)
        self.assertEqual(self.run_gate(bench_file,
                                       scaled(3.0, _FILLERS[0], 1.09)), 0)
        self.assertEqual(self.run_gate(bench_file,
                                       scaled(3.0, _FILLERS[0], 1.12)), 1)
        # Three repetitions, only the last one slow: the median holds.
        rows = scaled(1.0)
        rows.append(dict(row(_FILLERS[0]), real_time=1000.0))
        rows.append(dict(row(_FILLERS[0]), real_time=1500.0))
        self.assertEqual(self.run_gate(bench_file, rows), 0)
        # Rows below --min-us, or absent from the baseline, measure nothing.
        tiny = [row(name, real_us=50.0) for name in _FILLERS]
        self.assertEqual(self.run_gate(bench_file, scaled(1.0), tiny), 1)
        self.assertEqual(self.run_gate(bench_file, scaled(1.0), []), 1)


if __name__ == "__main__":
    unittest.main()

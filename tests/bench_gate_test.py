#!/usr/bin/env python3
"""Runs ci/bench_gate.py on small fixture files and checks each verdict."""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "ci", "bench_gate.py")

BASELINE = {
    "bench": "bench_fixture",
    "experiment": "gate fixture",
    "hardware_concurrency": 4,
    "identities": {"oracle_matches": True, "budget_respected": True},
    "metrics": {
        "ns_per_op": {"value": 100.0, "unit": "ns", "better": "lower", "tolerance": 0.2},
        "speedup_4t": {"value": 2.0, "unit": "x", "better": "higher",
                       "tolerance": 0.25, "limit": 1.0, "min_cores": 4},
        "scan_speedup": {"value": 3.0, "unit": "x", "better": "higher", "limit": 2.0},
        "max_dev": {"value": 0.01, "unit": "prob", "better": "lower", "limit": 0.05},
        "reported_s": {"value": 5.0, "unit": "s", "better": "lower"},
    },
}


def run_gate(baseline, fresh):
    """Returns the gate's exit code and its combined output."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("baseline.json", baseline), ("fresh.json", fresh)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        result = subprocess.run([sys.executable, GATE] + paths,
                                capture_output=True, text=True, check=False)
    return result.returncode, result.stdout + result.stderr


def with_value(name, value):
    fresh = copy.deepcopy(BASELINE)
    fresh["metrics"][name]["value"] = value
    return fresh


class BenchGateTest(unittest.TestCase):
    def assertGate(self, fresh, passes, baseline=BASELINE):
        code, output = run_gate(baseline, fresh)
        self.assertEqual(code, 0 if passes else 1, output)
        return output

    def test_baseline_against_itself_passes(self):
        self.assertGate(BASELINE, passes=True)

    def test_flipped_or_missing_identity_fails(self):
        flipped = copy.deepcopy(BASELINE)
        flipped["identities"]["oracle_matches"] = False
        self.assertGate(flipped, passes=False)
        missing = copy.deepcopy(BASELINE)
        del missing["identities"]["budget_respected"]
        self.assertGate(missing, passes=False)

    def test_metric_just_past_its_tolerance_fails(self):
        # lower is better: bound 100 * 1.2; higher is better: bound 2.0 * 0.75.
        self.assertGate(with_value("ns_per_op", 119.9), passes=True)
        self.assertGate(with_value("ns_per_op", 120.1), passes=False)
        self.assertGate(with_value("speedup_4t", 1.51), passes=True)
        self.assertGate(with_value("speedup_4t", 1.49), passes=False)

    def test_metric_just_past_its_limit_fails(self):
        self.assertGate(with_value("scan_speedup", 2.0), passes=True)
        self.assertGate(with_value("scan_speedup", 1.99), passes=False)
        self.assertGate(with_value("max_dev", 0.0501), passes=False)

    def test_metric_without_a_bar_is_only_printed(self):
        output = self.assertGate(with_value("reported_s", 500.0), passes=True)
        self.assertIn("reported_s", output)

    def test_changed_bar_fails(self):
        changes = [("ns_per_op", "tolerance", 0.3), ("ns_per_op", "unit", "us"),
                   ("ns_per_op", "better", "higher"), ("scan_speedup", "limit", 1.5),
                   ("speedup_4t", "min_cores", 2), ("reported_s", "tolerance", 0.1)]
        for name, key, value in changes:
            with self.subTest(name=name, key=key):
                fresh = copy.deepcopy(BASELINE)
                fresh["metrics"][name][key] = value
                self.assertGate(fresh, passes=False)

    def test_missing_metric_fails(self):
        fresh = copy.deepcopy(BASELINE)
        del fresh["metrics"]["reported_s"]
        self.assertGate(fresh, passes=False)

    def test_mismatched_bench_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["bench"] = "bench_other"
        self.assertGate(fresh, passes=False)

    def test_min_cores_above_a_files_cores_is_skipped(self):
        # 0.5x is past both bars of speedup_4t, which needs 4 cores.
        fresh = with_value("speedup_4t", 0.5)
        self.assertGate(fresh, passes=False)
        fresh["hardware_concurrency"] = 2
        self.assertIn("skipped", self.assertGate(fresh, passes=True))
        small_baseline = copy.deepcopy(BASELINE)
        small_baseline["hardware_concurrency"] = 1
        self.assertIn("skipped", self.assertGate(with_value("speedup_4t", 0.5), passes=True,
                                                 baseline=small_baseline))


if __name__ == "__main__":
    unittest.main()

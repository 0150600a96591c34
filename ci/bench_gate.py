#!/usr/bin/env python3
"""Compares a fresh BENCH_*.json against its committed baseline.

Usage: bench_gate.py <baseline.json> <fresh.json>

Both files have the one bench schema (bench/bench_report.h):

  {"bench", "experiment", "hardware_concurrency",
   "identities": {name: bool},
   "metrics": {name: {"value", "unit", "better",
                      optional "tolerance", "limit", "min_cores"}}}

The gate fails when
  * the two files name different benches;
  * an identity of either file is missing or not true in the fresh file;
  * a metric, or its bar (unit, better, tolerance, limit, min_cores),
    differs between the two files;
  * a metric is worse than the baseline value by more than its
    tolerance, a fraction of the baseline value;
  * a metric is worse than its absolute limit.

A metric whose min_cores exceeds either file's hardware_concurrency is
printed as skipped; a metric with no bar is only printed. Exit 0 when
the gate passes, 1 when it fails.
"""

import json
import sys

BAR = ("unit", "better", "tolerance", "limit", "min_cores")


def worse(value, bound, better):
    """Whether `value` is on the worse side of `bound`."""
    return value > bound if better == "lower" else value < bound


def check_metric(name, base, fresh, cores):
    """Prints one line for the metric; returns its failures."""
    changed = [key for key in BAR if base.get(key) != fresh.get(key)]
    if changed:
        return [f"{name}: bar differs from the baseline ({', '.join(changed)}); "
                "refresh the baseline with the bench change"]
    if base["better"] not in ("lower", "higher"):
        return [f"{name}: better is {base['better']!r}, not lower or higher"]
    value, better = fresh["value"], base["better"]
    line = (f"{name} = {value:.4g} {base['unit']} "
            f"(baseline {base['value']:.4g}, {better} is better)")
    bounds = []
    if "tolerance" in base:
        step = base["tolerance"] if better == "lower" else -base["tolerance"]
        bounds.append((f"tolerance {base['tolerance']:g}", base["value"] * (1 + step)))
    if "limit" in base:
        bounds.append(("limit", base["limit"]))
    if not bounds:
        print(f"bench-gate: {line}")
        return []
    if base.get("min_cores", 0) > cores:
        print(f"bench-gate: {line}: skipped, needs {base['min_cores']} cores, "
              f"has {cores}")
        return []
    failures = [f"{name} = {value:.4g} is worse than its {kind} bound {bound:.4g}"
                for kind, bound in bounds if worse(value, bound, better)]
    verdict = "FAIL" if failures else "ok"
    bars = ", ".join(f"{kind} bound {bound:.4g}" for kind, bound in bounds)
    print(f"bench-gate: {line}: {bars}: {verdict}")
    return failures


def compare(base, fresh):
    """Returns the list of failures of `fresh` against `base`."""
    if base["bench"] != fresh["bench"]:
        return [f"baseline is from {base['bench']}, fresh file from {fresh['bench']}"]
    failures = []
    for name in {**base["identities"], **fresh["identities"]}:
        holds = fresh["identities"].get(name)
        print(f"bench-gate: identity {name} = {holds}")
        if holds is not True:
            failures.append(f"identity {name} is {holds}, not true")
    base_metrics, fresh_metrics = base["metrics"], fresh["metrics"]
    for name in base_metrics.keys() ^ fresh_metrics.keys():
        where = "baseline" if name in base_metrics else "fresh file"
        failures.append(f"{name}: metric only in the {where}")
    cores = min(base["hardware_concurrency"], fresh["hardware_concurrency"])
    for name, metric in base_metrics.items():
        if name in fresh_metrics:
            failures += check_metric(name, metric, fresh_metrics[name], cores)
    return failures


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} <baseline.json> <fresh.json>", file=sys.stderr)
        return 1
    try:
        with open(argv[1]) as f:
            base = json.load(f)
        with open(argv[2]) as f:
            fresh = json.load(f)
        print(f"bench-gate: {base['bench']}: {argv[2]} against {argv[1]}")
        failures = compare(base, fresh)
    except (OSError, ValueError, KeyError, TypeError) as e:
        failures = [f"cannot read a bench report: {e!r}"]
    for failure in failures:
        print(f"bench-gate: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

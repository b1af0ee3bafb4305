"""Reduced-scale smoke run of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at reduced scale, untraced and
traced, and checks that:

* the metric names and units each run reports are exactly those of
  ``BENCHMARK.json``, and every output check passes;
* the traced pass reproduces the untraced outputs and kernel event count;
* ``interactions.json`` covers every per-layer metric and names only known
  metrics and workloads;
* the p99 sample-count guard refuses a run with fewer than 1000 markers;
* a corrupted copy of a run's sink tuples raises ``error_rate``.

Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the program source on the path)
import checks  # noqa: E402
import workloads  # noqa: E402

#: input scale of the smoke runs (macro and fabric shrink; keyed is small)
SCALE = 0.1
SECONDS = 0.1


def _metric_specs(benchmark: dict, section: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in benchmark[section]}


def check_interactions(benchmark: dict, failures: list[str]) -> None:
    table = json.loads((HERE / "interactions.json").read_text())
    per_layer = _metric_specs(benchmark, "per_layer")
    known_metrics = set(_metric_specs(benchmark, "end_to_end")) | {"recovery_vms"}
    known_workloads = {entry["name"] for entry in benchmark["workloads"]}
    if set(table) != set(per_layer):
        failures.append(f"interactions.json rows differ from per_layer: {sorted(set(table) ^ set(per_layer))}")
    for metric, row in table.items():
        if not set(row["moves"]) <= known_metrics:
            failures.append(f"interactions.json {metric}: unknown metric in {row['moves']}")
        if not set(row["on"]) | set(row["flat_on"]) <= known_workloads:
            failures.append(f"interactions.json {metric}: unknown workload")
        if row["moves"] and not row["on"]:
            failures.append(f"interactions.json {metric}: moves metrics but names no workload")


def check_run(name: str, benchmark: dict, failures: list[str]) -> None:
    untraced = run.end_to_end(name, seed=0, seconds=SECONDS, scale=SCALE, minimum=1, min_samples=0)
    if untraced.units != _metric_specs(benchmark, "end_to_end"):
        failures.append(f"{name}: end-to-end metrics {untraced.units} differ from BENCHMARK.json")
    if untraced.verdict.failed:
        failures.append(f"{name}: output checks failed: {untraced.verdict.notes}")
    traced = run.traced(name, seed=0, seconds=SECONDS, scale=SCALE)
    if traced.units != _metric_specs(benchmark, "per_layer"):
        failures.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
    if traced.verdict.failed:
        failures.append(f"{name}: traced run failed its checks: {traced.verdict.notes}")


def check_guard_and_corruption(failures: list[str]) -> None:
    workload = workloads.make("macro-columnar", seed=0, scale=SCALE)
    clean = workload.execute()
    try:
        run.quantile_vms(clean.latencies, 0.99)
    except run.SampleGuardError:
        pass
    else:
        failures.append(f"sample guard accepted {len(clean.latencies)} markers")
    reference = checks.reference_for(workload)
    if checks.check(workload, clean, reference).failed:
        failures.append("clean macro-columnar outputs failed their checks")
    for path in ("q1", "q3"):
        corrupted = copy.copy(clean)
        corrupted.outputs = {key: list(tuples) for key, tuples in clean.outputs.items()}
        value, event_time, key, sign = corrupted.outputs[path][0]
        corrupted.outputs[path][0] = (("corrupted", value), event_time, key, sign)
        if checks.check(workload, corrupted, reference).error_rate <= 0:
            failures.append(f"a corrupted {path} tuple left error_rate at 0")


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_interactions(benchmark, failures)
    for entry in benchmark["workloads"]:
        check_run(entry["name"], benchmark, failures)
        print(f"smoke {entry['name']}: done")
    check_guard_and_corruption(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Print every end-to-end metric of every workload, by name and unit.

Usage (from the repository root)::

    python3 perfbench/report.py [--seconds 20] [--seeds 0 8191]

Each (workload, seed) runs in a fresh interpreter, so ``peak_rss_mb`` is that
workload's own. Besides the ``BENCHMARK.json`` metrics it prints throughput
and set-up time as measured, before rescaling to the reference host speed,
the host speed itself (reference spin time over measured),
``latency_p50_vms``, the marker sample count, ``error_rate`` and, where
there are kills, ``recovery_vms``. Seed 8191 is the held-out seed: it was not
used while the benchmark was built. Exits 1 if any run has ``error_rate``
above 0 or fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HELD_OUT_SEED = 8191
EXTRA_UNITS = {
    "throughput_host_rps": "1/s",
    "setup_host_s": "s",
    "host_speed": "ratio",
    "latency_p50_vms": "vms",
    "latency_samples": "count",
    "error_rate": "ratio",
    "recovery_vms": "vms",
}


def one(workload: str, seed: int, seconds: float) -> None:
    """Child side: run one workload and print metrics plus extras as JSON."""
    sys.path.insert(0, str(HERE))
    import run

    outcome = run.end_to_end(workload, seed, seconds)
    rows = {name: [value, outcome.units[name]] for name, value in outcome.metrics.items()}
    for name, unit in EXTRA_UNITS.items():
        if name in outcome.extra:
            rows[name] = [outcome.extra[name], unit]
    print(json.dumps({"rows": rows, "notes": outcome.verdict.notes}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, HELD_OUT_SEED])
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        one(args.one[0], int(args.one[1]), args.seconds)
        return 0
    failures = 0
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for seed in args.seeds:
            child = subprocess.run(
                [sys.executable, __file__, "--one", workload, str(seed), "--seconds", str(args.seconds)],
                capture_output=True,
                text=True,
            )
            if child.returncode != 0:
                failures += 1
                print(f"{workload} seed {seed}: FAILED\n{child.stderr.strip()}")
                continue
            result = json.loads(child.stdout.strip().splitlines()[-1])
            for name, (value, unit) in result["rows"].items():
                print(f"{workload:<22} seed {seed:<6} {name:<18} {value:>14.6g} {unit}")
            for note in result["notes"]:
                print(f"{workload:<22} seed {seed:<6} check failed: {note}")
            if result["rows"]["error_rate"][0] > 0:
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

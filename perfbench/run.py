"""Run one benchmark workload and print its result as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload macro-record --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats untraced passes for about ``--seconds`` seconds and
reports the end-to-end metrics: host throughput and set-up time as medians
over passes, rescaled to a reference host speed (``hostspeed.py``), the
pooled virtual p99 marker latency, and peak resident memory. ``--trace 1`` runs untraced passes for a third of the time, then one
pass under :class:`tracing.LayerTracer`, and reports the per-layer metrics.
Either way the outputs are checked (``checks.py``) and the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units are those of ``BENCHMARK.json``; ``README.md`` next
to this file defines them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: no program source at {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(HERE)]

from repro.runtime.task import SourceTask  # noqa: E402
from repro.state.api import KeyedStateBackend  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_SPIN_S, HostProbe  # noqa: E402
from tracing import LAYERS, LayerTracer  # noqa: E402

#: pooled marker samples a p99 needs: at least ten beyond it
MIN_MARKER_SAMPLES = 1000
#: untraced passes per end-to-end run, at least
MIN_PASSES = 3
#: set-ups timed per end-to-end run, at least, and host seconds spent on them
MIN_SETUPS = 15
SETUP_SECONDS = 1.0

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "setup_s": "s",
    "latency_p99_vms": "vms",
    "peak_rss_mb": "MB",
}


class SampleGuardError(RuntimeError):
    """Too few latency markers to support the reported percentile."""


def quantile_vms(samples: list[float], q: float, min_samples: int = MIN_MARKER_SAMPLES) -> float:
    """Nearest-rank quantile of marker latencies, in virtual ms; refuses
    when fewer than ``min_samples`` back it."""
    if len(samples) < min_samples:
        raise SampleGuardError(
            f"{len(samples)} latency markers < {min_samples}: a p99 needs ten samples beyond it"
        )
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e3


@dataclass
class Outcome:
    """One benchmark run: contract metrics, verdict, and report-only figures."""

    metrics: dict[str, float]
    units: dict[str, str]
    verdict: checks.Verdict
    #: figures the report prints that the contract line does not carry
    extra: dict[str, Any] = field(default_factory=dict)

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.verdict.failed == 0,
                "attempted": self.verdict.attempted,
                "failed": self.verdict.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


@dataclass
class PassSummary:
    setup_s: float
    #: host seconds of the run phase, the probe's spins taken out
    wall_s: float
    #: median probe spin during the run phase
    spin_s: float
    digest: str
    kernel_events: int
    latencies: list[float]

    @property
    def normalised_s(self) -> float:
        """Run-phase seconds at the reference host speed."""
        return self.wall_s * REFERENCE_SPIN_S / self.spin_s


def _summary(run: workloads.Pass, probe: HostProbe) -> PassSummary:
    return PassSummary(
        run.setup_s,
        run.wall_s - probe.spent(),
        probe.median(),
        checks.digest(run.outputs),
        run.kernel_events,
        run.latencies,
    )


def _probed(workload: workloads.BenchWorkload) -> PassSummary:
    probe = HostProbe()
    return _summary(workload.execute(probe=probe), probe)


def untraced_passes(
    workload: workloads.BenchWorkload, seconds: float, minimum: int
) -> tuple[workloads.Pass, list[PassSummary]]:
    """Passes until the next would overrun ``seconds``; keeps the first
    pass whole and only a summary of the rest."""
    started = time.perf_counter()
    probe = HostProbe()
    first = workload.execute(probe=probe)
    summaries = [_summary(first, probe)]
    # Only the outputs are checked later: let the first pass's engines go.
    first.engines.clear()
    first.extra.pop("fabric", None)
    while True:
        elapsed = time.perf_counter() - started
        if len(summaries) >= minimum and elapsed * (len(summaries) + 1) / len(summaries) > seconds:
            return first, summaries
        summaries.append(_probed(workload))


def setup_times(workload: workloads.BenchWorkload) -> tuple[list[float], float]:
    """Host seconds of repeated set-ups (each built and discarded) with the
    probe's spins taken out, and the probe's median spin."""
    times = []
    with HostProbe() as probe:
        started = time.perf_counter()
        while len(times) < MIN_SETUPS or time.perf_counter() - started < SETUP_SECONDS:
            gc.collect()
            built_at, spins = time.perf_counter(), len(probe.spins)
            workload.build()
            times.append(time.perf_counter() - built_at - sum(probe.spins[spins:]))
    return times, probe.median()


def _judge(workload: workloads.BenchWorkload, first: workloads.Pass, summaries: list[PassSummary]) -> checks.Verdict:
    verdict = checks.check(workload, first, checks.reference_for(workload))
    base = summaries[0]
    for index, summary in enumerate(summaries[1:], start=2):
        verdict.require(
            f"pass {index} repeats pass 1",
            (summary.digest, summary.kernel_events, summary.latencies)
            == (base.digest, base.kernel_events, base.latencies),
        )
    return verdict


def end_to_end(
    name: str,
    seed: int,
    seconds: float,
    scale: float = 1.0,
    minimum: int = MIN_PASSES,
    min_samples: int = MIN_MARKER_SAMPLES,
) -> Outcome:
    """The ``--trace 0`` run: end-to-end metrics with tracing off."""
    workload = workloads.make(name, seed, scale)
    first, summaries = untraced_passes(workload, seconds, minimum)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups, setup_spin_s = setup_times(workload)
    latencies = first.latencies
    metrics = {
        "throughput_rps": statistics.median(workload.records / s.normalised_s for s in summaries),
        "setup_s": statistics.median(setups) * REFERENCE_SPIN_S / setup_spin_s,
        "latency_p99_vms": quantile_vms(latencies, 0.99, min_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    verdict = _judge(workload, first, summaries)
    extra = {
        "throughput_host_rps": statistics.median(workload.records / s.wall_s for s in summaries),
        "setup_host_s": statistics.median(setups),
        "host_speed": REFERENCE_SPIN_S / statistics.median(s.spin_s for s in summaries),
        "latency_p50_vms": quantile_vms(latencies, 0.50, min_samples),
        "latency_samples": len(latencies),
        "error_rate": verdict.error_rate,
    }
    if first.recovery_vms:
        extra["recovery_vms"] = statistics.mean(first.recovery_vms)
    return Outcome(metrics, dict(END_TO_END_UNITS), verdict, extra)


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
#: per-layer metric -> unit; ``*.share`` is the layer's self time over the
#: traced pass's wall time
PER_LAYER_UNITS = {
    "sim.kernel.events_per_record": "events/record",
    "sim.kernel.self_s": "s",
    "sim.kernel.schedule_s": "s",
    "runtime.task.self_s": "s",
    "runtime.task.deliver_s": "s",
    "runtime.channel.self_s": "s",
    "runtime.channel.records_per_send": "records/send",
    "core.operators.self_s": "s",
    "core.operators.records_per_call": "records/call",
    "windows.self_s": "s",
    "cep.self_s": "s",
    "ml.self_s": "s",
    "txn.operator.self_s": "s",
    "txn.store.self_s": "s",
    "txn.store.commits": "count",
    "txn.store.aborts": "count",
    "txn.store.commit_ratio": "ratio",
    "state.calls": "count",
    "state.self_s": "s",
    "state.entries": "count",
    "state.bytes": "B",
    "checkpoint.completed": "count",
    "checkpoint.bytes": "B",
    "checkpoint.capture_s": "s",
    "checkpoint.persist_s": "s",
    "checkpoint.restore_s": "s",
    "checkpoint.replayed_records": "count",
    "checkpoint.useful_ratio": "ratio",
    "recovery_vms": "vms",
    "io.sink.self_s": "s",
    "io.sink.records": "count",
    "obs.self_s": "s",
    "obs.markers": "count",
    "fabric.submit_s": "s",
    "fabric.preemptions": "count",
    "fabric.sched_events_per_job": "events/job",
    "fabric.teardown_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
}


def _unique(items: Any) -> list:
    return list({id(item): item for item in items}.values())


def layer_metrics(tracer: LayerTracer, run: workloads.Pass, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (read after the tracer is
    uninstalled: sizing the state calls the backends' own snapshot)."""
    wall = run.setup_s + run.wall_s
    engines = run.engines
    tasks = _unique(task for engine in engines for task in engine.tasks.values())
    stores = _unique(store for engine in engines for store in engine.txn_stores.values())
    backends = _unique(
        task.state_backend
        for task in tasks
        if isinstance(getattr(task, "state_backend", None), KeyedStateBackend)
    )
    completed = [record for engine in engines for record in engine.checkpoints.values() if record.complete]
    emitted = sum(task.metrics.records_out for task in tasks if isinstance(task, SourceTask))
    commits = sum(store.committed for store in stores)
    aborts = sum(store.aborted for store in stores)
    fabric = run.extra.get("fabric")
    sends = tracer.calls("runtime.channel/send")
    metrics = {
        "sim.kernel.events_per_record": run.kernel_events / run.records,
        "sim.kernel.self_s": tracer.self_s("sim.kernel/"),
        "sim.kernel.schedule_s": tracer.self_s("sim.kernel/schedule"),
        "runtime.task.self_s": tracer.self_s("runtime.task/"),
        "runtime.task.deliver_s": tracer.self_s("runtime.task/deliver"),
        "runtime.channel.self_s": tracer.self_s("runtime.channel/"),
        "runtime.channel.records_per_send": tracer.records("runtime.channel/send") / max(sends, 1),
        "core.operators.self_s": tracer.self_s("core.operators/"),
        "core.operators.records_per_call": tracer.operator_records / max(tracer.operator_calls, 1),
        "windows.self_s": tracer.self_s("windows/"),
        "cep.self_s": tracer.self_s("cep/"),
        "ml.self_s": tracer.self_s("ml/"),
        "txn.operator.self_s": tracer.self_s("txn.operator/"),
        "txn.store.self_s": tracer.self_s("txn.store/"),
        "txn.store.commits": commits,
        "txn.store.aborts": aborts,
        "txn.store.commit_ratio": commits / (commits + aborts) if commits + aborts else 1.0,
        "state.calls": tracer.calls("state/"),
        "state.self_s": tracer.self_s("state/"),
        "state.entries": sum(backend.total_entries() for backend in backends),
        "state.bytes": sum(backend.snapshot_bytes() for backend in backends),
        "checkpoint.completed": len(completed),
        "checkpoint.bytes": sum(record.total_bytes() for record in completed),
        "checkpoint.capture_s": tracer.self_s("checkpoint/capture"),
        "checkpoint.persist_s": tracer.self_s("checkpoint/persist"),
        "checkpoint.restore_s": tracer.self_s("checkpoint/restore"),
        "checkpoint.replayed_records": emitted - run.records,
        "checkpoint.useful_ratio": run.records / emitted,
        "recovery_vms": statistics.mean(run.recovery_vms) if run.recovery_vms else 0.0,
        "io.sink.self_s": tracer.self_s("io.sink/"),
        "io.sink.records": tracer.records("io.sink/"),
        "obs.self_s": tracer.self_s("obs/"),
        "obs.markers": tracer.calls("obs/record_marker"),
        "fabric.submit_s": tracer.self_s("fabric/submit"),
        "fabric.preemptions": fabric.scheduler.preemptions if fabric else 0,
        "fabric.sched_events_per_job": (
            (fabric.scheduler.admissions + fabric.scheduler.preemptions) / len(fabric.tenants)
            if fabric
            else 0.0
        ),
        "fabric.teardown_s": (
            sum(handle.teardown_seconds for handle in fabric.tenants.values()) if fabric else 0.0
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = tracer.self_s(f"{layer}/") / wall
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead"] = wall / untraced_s
    metrics["trace.unattributed_share"] = tracer.self_s("bench/") / wall
    return metrics


def traced(name: str, seed: int, seconds: float, scale: float = 1.0) -> Outcome:
    """The ``--trace 1`` run: per-layer metrics from one traced pass, which
    must reproduce the untraced passes' outputs and kernel event count."""
    workload = workloads.make(name, seed, scale)
    first, summaries = untraced_passes(workload, seconds / 3, minimum=1)
    untraced_s = statistics.median(s.setup_s + s.wall_s for s in summaries)
    tracer = LayerTracer()
    tracer.install()
    try:
        run = workload.execute(tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, run, untraced_s)
    verdict = _judge(workload, first, summaries)
    verdict.require("traced pass reproduces sink digests", checks.digest(run.outputs) == summaries[0].digest)
    verdict.require("traced pass reproduces kernel events", run.kernel_events == summaries[0].kernel_events)
    units = {metric: PER_LAYER_UNITS[metric] for metric in metrics}
    return Outcome(metrics, units, verdict, {"ledger": tracer.ledger(), "error_rate": verdict.error_rate})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        outcome = traced(args.workload, args.seed, args.seconds)
        print("\n".join(outcome.extra["ledger"]))
    else:
        outcome = end_to_end(args.workload, args.seed, args.seconds)
    for note in outcome.verdict.notes:
        print(f"check failed: {note}")
    print(outcome.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())

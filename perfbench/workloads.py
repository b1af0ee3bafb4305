"""The four benchmark workloads.

Each workload turns a seed into a fixed input, then builds and runs the job
under test from that input alone: the program never sees the seed. One
:meth:`BenchWorkload.execute` call is one *pass*: set-up (job definition
until the engine, or every fabric tenant, is built) and run (until the job
drains). A pass reports host seconds for both phases, the source-to-sink
latency-marker samples (virtual seconds), the sink outputs, and the objects
the per-layer counters read.

Latency samples are taken by wrapping ``LatencyTracker.on_marker`` from the
benchmark's side; the engine's own reservoir histograms thin out beyond 512
samples per path and cannot be pooled exactly.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.fabric import FabricConfig, JobFabric
from repro.io import CollectSink, SensorWorkload
from repro.io.sinks import TransactionalSink
from repro.io.sources import CollectionWorkload, SourceEvent, Workload
from repro.macro.queries import build_macro_job
from repro.macro.runner import ENGINE_CONFIGS
from repro.macro.sources import macro_workload
from repro.obs.latency import LatencyTracker
from repro.runtime.config import CheckpointConfig, EngineConfig

#: engine seed (channel jitter); fixed so that only the input varies with --seed
ENGINE_SEED = 0

#: macro input size: 7x the base mix is 26.6k records and about 1260 pooled
#: latency markers, enough for a p99 with more than ten samples beyond it
MACRO_SCALE = 7.0

#: keyed-state-recovery shape: wide keyspace, frequent full checkpoints,
#: three kills, each recovered from the latest completed checkpoint
KEYED_KEYS = 20_000
KEYED_RECORDS = 30_000
KEYED_RATE = 10_000.0
KEYED_PARALLELISM = 2
KEYED_CHECKPOINT_INTERVAL = 0.05
KEYED_MARKER_PERIOD = 0.005
KEYED_KILLS = ((0.75, "sum[0]"), (1.5, "sum[1]"), (2.25, "sum[0]"))
KEYED_HORIZON = 60.0

#: fabric-tenants shape: many small keyed jobs contending for few slots
FABRIC_TENANTS = 256
FABRIC_EVENTS = 100
FABRIC_SLOTS = 8
FABRIC_QUANTUM = 0.02
FABRIC_MARKER_PERIOD = 0.005


class ListWorkload(Workload):
    """A pre-generated event list handed to the program as its input."""

    def __init__(self, events: list[SourceEvent]) -> None:
        self._events = events

    def events(self) -> Iterator[SourceEvent]:
        return iter(self._events)


@contextmanager
def marker_latencies() -> Iterator[list[float]]:
    """Collect every source-to-sink marker latency (virtual seconds)."""
    samples: list[float] = []
    original = LatencyTracker.on_marker

    def on_marker(tracker, task_name, subtask, marker, now, terminal):
        if terminal:
            samples.append(now - marker.emitted_at)
        return original(tracker, task_name, subtask, marker, now, terminal)

    LatencyTracker.on_marker = on_marker
    try:
        yield samples
    finally:
        LatencyTracker.on_marker = original


@dataclass
class Pass:
    """What one set-up-and-run of a workload produced."""

    setup_s: float
    wall_s: float
    records: int
    latencies: list[float]
    #: sink path -> observed (value, event_time, key, sign) tuples, sink order
    outputs: dict[str, list[tuple]]
    kernel_events: int
    #: engines whose tasks, checkpoints and stores the layer counters read
    engines: list[Any]
    #: virtual ms from each injected kill to the first checkpoint completed
    #: after its restore (keyed-state-recovery only)
    recovery_vms: list[float] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)


def sink_tuples(results: list) -> list[tuple]:
    """A sink's results as (value, event_time, key, sign) tuples."""
    return [(r.value, r.event_time, r.key, r.sign) for r in results]


class BenchWorkload:
    """Base: subclasses generate ``self.records`` inputs and implement
    :meth:`build` (timed as set-up), :meth:`run` and :meth:`observe`."""

    name = ""
    records = 0

    def build(self) -> Any:
        raise NotImplementedError

    def run(self, built: Any) -> None:
        raise NotImplementedError

    def observe(self, built: Any) -> dict[str, Any]:
        raise NotImplementedError

    def execute(self, tracer: Any = None, probe: Any = None) -> Pass:
        """One pass. A ``tracer`` times each phase as a root span, whose
        self time is what no layer span covers; a ``probe``
        (:class:`hostspeed.HostProbe`) is armed for the run phase only."""
        gc.collect()
        setup = tracer.span("bench/setup", self.build) if tracer else self.build
        run = tracer.span("bench/run", self.run) if tracer else self.run
        with marker_latencies() as samples:
            started = time.perf_counter()
            built = setup()
            built_at = time.perf_counter()
            with probe if probe is not None else nullcontext():
                run(built)
            done = time.perf_counter()
        return Pass(
            setup_s=built_at - started,
            wall_s=done - built_at,
            records=self.records,
            latencies=samples,
            **self.observe(built),
        )


class MacroWorkload(BenchWorkload):
    """The five-query macro job on one ``ENGINE_CONFIGS`` preset."""

    def __init__(self, name: str, preset: str, events: list[SourceEvent]) -> None:
        self.name = name
        self.spec = ENGINE_CONFIGS[preset]
        self.events = events
        self.records = len(events)

    def build(self) -> Any:
        job = build_macro_job(
            self.spec.engine_config(ENGINE_SEED),
            txn_locking=self.spec.txn_locking,
            workload=ListWorkload(self.events),
        )
        job.env.build()
        return job

    def run(self, job: Any) -> None:
        job.env.execute()

    def observe(self, job: Any) -> dict[str, Any]:
        engine = job.env.engine
        return {
            "outputs": {query: job.sink_tuples(query) for query in job.sinks},
            "kernel_events": engine.kernel.dispatched_events,
            "engines": [engine],
            "extra": {"store_items": job.store.committed_items()},
        }


def keyed_input(seed: int) -> list[dict]:
    """Wide-keyspace (key, value) records for keyed-state-recovery."""
    rng = random.Random(seed)
    return [
        {"k": rng.randrange(KEYED_KEYS), "v": rng.randrange(1, 100)}
        for _ in range(KEYED_RECORDS)
    ]


class KeyedRecoveryWorkload(BenchWorkload):
    """Keyed running sum with full aligned checkpoints, an exactly-once
    sink and a fixed kill schedule (``kills=False``: the fault-free run)."""

    name = "keyed-state-recovery"

    def __init__(self, values: list[dict], kills: bool = True) -> None:
        self.values = values
        self.records = len(values)
        self.kills = KEYED_KILLS if kills else ()

    def build(self) -> Any:
        config = EngineConfig(
            seed=ENGINE_SEED,
            columnar_enabled=True,
            columnar_batch_size=64,
            latency_marker_period=KEYED_MARKER_PERIOD,
            checkpoints=CheckpointConfig(interval=KEYED_CHECKPOINT_INTERVAL),
        )
        env = StreamExecutionEnvironment(config, name="keyed")
        sink = TransactionalSink("sums")
        (
            env.from_workload(CollectionWorkload(self.values, rate=KEYED_RATE), name="src")
            .key_by(field_selector("k"), parallelism=KEYED_PARALLELISM)
            .aggregate(
                create=lambda: 0,
                add=lambda total, v: total + v["v"],
                name="sum",
                parallelism=KEYED_PARALLELISM,
            )
            .sink(sink, name="sums", parallelism=KEYED_PARALLELISM)
        )
        engine = env.build()
        log: list[tuple[float, float]] = []
        for at, task_name in self.kills:
            engine.kernel.call_at(at, self._kill(engine, task_name, log))
        return env, sink, log

    @staticmethod
    def _kill(engine: Any, task_name: str, log: list) -> Any:
        def fire() -> None:
            engine.kill_task(task_name)
            log.append((engine.kernel.now(), engine.recover_from_checkpoint()))

        return fire

    def run(self, built: Any) -> None:
        env, _sink, _log = built
        env.execute(until=KEYED_HORIZON)
        if not env.engine.job_finished:
            raise RuntimeError("keyed-state-recovery did not drain before its horizon")

    def observe(self, built: Any) -> dict[str, Any]:
        env, sink, log = built
        engine = env.engine
        completed = sorted(
            (record.triggered_at, record.completed_at)
            for record in engine.checkpoints.values()
            if record.complete
        )
        recovery = []
        for killed_at, resumed_at in log:
            done = min(
                (completed_at for triggered, completed_at in completed if triggered >= resumed_at),
                default=None,
            )
            if done is None:
                raise RuntimeError(f"no checkpoint completed after the restore at {resumed_at}")
            recovery.append((done - killed_at) * 1e3)
        return {
            "outputs": {"sums": sink_tuples(sink.committed)},
            "kernel_events": engine.kernel.dispatched_events,
            "engines": [engine],
            "recovery_vms": recovery,
        }


def tenant_env(name: str, events: list[SourceEvent]) -> tuple[Any, CollectSink]:
    """One fabric tenant: per-sensor running count over its own input."""
    env = StreamExecutionEnvironment(
        EngineConfig(seed=ENGINE_SEED, latency_marker_period=FABRIC_MARKER_PERIOD), name=name
    )
    sink = CollectSink("out")
    (
        env.from_workload(ListWorkload(events))
        .key_by(field_selector("sensor"), parallelism=1)
        .aggregate(create=lambda: 0, add=lambda count, _v: count + 1, name="count", parallelism=1)
        .sink(sink, parallelism=1)
    )
    return env, sink


def fabric_input(seed: int, tenants: int = FABRIC_TENANTS) -> list[list[SourceEvent]]:
    """One small sensor stream per fabric tenant."""
    return [
        list(
            SensorWorkload(
                count=FABRIC_EVENTS, rate=2000.0, key_count=4, seed=seed * 100_003 + index
            ).events()
        )
        for index in range(tenants)
    ]


class FabricWorkload(BenchWorkload):
    """Hundreds of small keyed jobs on one ``JobFabric`` slot pool."""

    name = "fabric-tenants"

    def __init__(self, inputs: list[list[SourceEvent]]) -> None:
        self.inputs = inputs
        self.records = sum(len(events) for events in inputs)

    def build(self) -> Any:
        fabric = JobFabric(FabricConfig(slots=FABRIC_SLOTS, quantum=FABRIC_QUANTUM))
        sinks = {}
        for index, events in enumerate(self.inputs):
            env, sink = tenant_env(f"t{index}", events)
            fabric.submit(env)
            sinks[f"t{index}"] = sink
        return fabric, sinks

    def run(self, built: Any) -> None:
        fabric, _sinks = built
        if not fabric.run().all_finished:
            raise RuntimeError("a fabric tenant did not finish")

    def observe(self, built: Any) -> dict[str, Any]:
        fabric, sinks = built
        return {
            "outputs": {name: sink_tuples(sink.results) for name, sink in sinks.items()},
            "kernel_events": fabric.kernel.dispatched_events,
            "engines": [handle.engine for handle in fabric.tenants.values()],
            "extra": {"fabric": fabric},
        }


WORKLOADS = ("macro-record", "macro-columnar", "keyed-state-recovery", "fabric-tenants")


def make(name: str, seed: int, scale: float = 1.0) -> BenchWorkload:
    """Generate ``name``'s input from ``seed``; ``scale`` < 1 shrinks the
    macro and fabric inputs for smoke runs."""
    if name in ("macro-record", "macro-columnar"):
        events = list(macro_workload(seed=seed, scale=MACRO_SCALE * scale).events())
        return MacroWorkload(name, "fastpath" if name == "macro-record" else "columnar", events)
    if name == "keyed-state-recovery":
        return KeyedRecoveryWorkload(keyed_input(seed))
    if name == "fabric-tenants":
        return FabricWorkload(fabric_input(seed, max(1, round(FABRIC_TENANTS * scale))))
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")

"""Outside-in per-layer tracing.

:class:`LayerTracer` wraps the public entry points of each layer, from the
benchmark's side, for the length of one traced pass; nothing under ``src/``
changes and every wrapper is removed afterwards. A span is one wrapped call.
Its *self time* is its duration minus the time its child spans cover, so the
self times of all span kinds add up to the traced pass's wall time, less
what runs outside any span.

Spans are not kept one by one: at macro scale a pass makes millions of
them. Each span kind keeps, in memory, its call count, self seconds and the
records it handled; :meth:`LayerTracer.ledger` writes them out when the run
ends. The wrappers only time calls and never change arguments or results, so
a traced pass must reproduce the untraced pass's outputs and kernel event
count exactly (``run.py`` checks both).
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.checkpoint import incremental
from repro.core.events import Record, RecordBatch
from repro.core.operators.base import Operator
from repro.fabric.fabric import JobFabric
from repro.io.sinks import Sink
from repro.obs import Observability
from repro.runtime import engine as engine_module
from repro.runtime.channel import OutputGate, PhysicalChannel
from repro.runtime.engine import Engine
from repro.runtime.task import Task
from repro.sim.kernel import Kernel
from repro.state.api import KeyedStateBackend
from repro.txn.store import TxnStateStore

# Imported so that their Operator subclasses exist when the tracer walks
# the class tree.
import repro.cep.operator  # noqa: F401
import repro.ml.serving  # noqa: F401
import repro.txn.operator  # noqa: F401
import repro.windows.operator  # noqa: F401

#: layer of an operator class, by the package that defines it; operator
#: families outside these packages count as ``core.operators``
OPERATOR_LAYERS = (
    ("repro.windows.", "windows"),
    ("repro.cep.", "cep"),
    ("repro.ml.", "ml"),
    ("repro.txn.", "txn.operator"),
)
OPERATOR_METHODS = ("process", "process_batch", "on_watermark", "on_event_timer", "on_processing_timer")
STATE_METHODS = ("get", "put", "delete")
SNAPSHOT_METHODS = ("snapshot", "full_snapshot", "delta_snapshot")
TXN_METHODS = ("begin", "acquire", "acquire_nowait", "txn_read", "txn_write", "finish_attempt", "abort", "_commit")
SINK_METHODS = ("write", "write_batch", "on_checkpoint", "on_checkpoint_complete")
#: records one sink call writes, by method
SINK_RECORDS = {"write": lambda *_: 1, "write_batch": lambda _sink, batch, _ctx: len(batch)}

#: every layer with a self time, in report order
LAYERS = (
    "sim.kernel",
    "runtime.task",
    "runtime.channel",
    "core.operators",
    "windows",
    "cep",
    "ml",
    "txn.operator",
    "txn.store",
    "state",
    "checkpoint",
    "io.sink",
    "obs",
    "fabric",
)


def operator_layer(cls: type) -> str:
    for prefix, layer in OPERATOR_LAYERS:
        if cls.__module__.startswith(prefix):
            return layer
    return "core.operators"


def _subclasses(root: type) -> list[type]:
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _records_in(element: Any) -> int:
    if type(element) is Record:
        return 1
    if type(element) is RecordBatch:
        return len(element)
    return 0


class LayerTracer:
    """Self time, calls and records per span kind (``layer/what``)."""

    def __init__(self) -> None:
        #: span kind -> [calls, self seconds, records]
        self.kinds: dict[str, list] = {}
        self._stack: list[float] = []
        self._operator_depth = 0
        #: records handed to the outermost operator call, and those calls
        self.operator_records = 0
        self.operator_calls = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def spanner(self, kind: str, records: Callable[..., int] | None = None) -> Callable:
        """A function that times what it wraps as ``kind`` spans;
        ``records(*args)`` counts the records one call handles."""
        entry = self.kinds.setdefault(kind, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def wrap(fn: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                stack.append(0.0)
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - started
                    entry[0] += 1
                    entry[1] += duration - stack.pop()
                    if records is not None:
                        entry[2] += records(*args)
                    if stack:
                        stack[-1] += duration

            return traced

        return wrap

    def span(self, kind: str, fn: Callable, records: Callable[..., int] | None = None) -> Callable:
        """``fn`` timed as a ``kind`` span."""
        return self.spanner(kind, records)(fn)

    def _operator_span(self, kind: str, fn: Callable, batch: bool) -> Callable:
        timed = self.span(kind, fn)

        def traced(operator: Any, element: Any, *args: Any) -> Any:
            if self._operator_depth == 0:
                self.operator_calls += 1
                self.operator_records += len(element) if batch else 1
            self._operator_depth += 1
            try:
                return timed(operator, element, *args)
            finally:
                self._operator_depth -= 1

        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patched.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    def _wrap(self, owner: Any, name: str, kind: str, records: Callable | None = None) -> None:
        self._patch(owner, name, self.span(kind, owner.__dict__[name], records))

    def install(self) -> None:
        """Wrap every layer's entry points (undo with :meth:`uninstall`)."""
        # Plan every class-tree wrapper before patching, so each one wraps
        # the original function and not another wrapper.
        plan: list[tuple[type, str, Callable, str]] = []
        for cls in _subclasses(Operator):
            layer = operator_layer(cls)
            for name in OPERATOR_METHODS:
                fn = next((c.__dict__[name] for c in cls.__mro__ if name in c.__dict__), None)
                if fn is not None:
                    plan.append((cls, name, fn, f"{layer}/{name}"))
        for cls, name, fn, kind in plan:
            if name in ("process", "process_batch"):
                self._patch(cls, name, self._operator_span(kind, fn, batch=name == "process_batch"))
            else:
                self._patch(cls, name, self.span(kind, fn))

        self._install_kernel()
        self._wrap(PhysicalChannel, "send", "runtime.channel/send", lambda _ch, element: _records_in(element))
        self._wrap(OutputGate, "emit", "runtime.channel/emit")
        self._wrap(Task, "deliver", "runtime.task/deliver")
        self._wrap(Task, "take_snapshot", "checkpoint/capture")
        self._wrap(Task, "restore_snapshot", "checkpoint/restore")
        self._wrap(Engine, "on_task_snapshot", "checkpoint/persist")
        self._wrap(Engine, "recover_from_checkpoint", "checkpoint/restore")
        traced_chain = self.span("checkpoint/restore", incremental.restore_chain)
        self._patch(incremental, "restore_chain", traced_chain)
        self._patch(engine_module, "restore_chain", traced_chain)
        for cls in _subclasses(KeyedStateBackend):
            for name in STATE_METHODS + SNAPSHOT_METHODS:
                if name in cls.__dict__:
                    self._wrap(cls, name, "state/access" if name in STATE_METHODS else "checkpoint/capture")
        for name in TXN_METHODS:
            self._wrap(TxnStateStore, name, f"txn.store/{name.lstrip('_')}")
        for cls in _subclasses(Sink):
            for name in SINK_METHODS:
                if name in cls.__dict__:
                    self._wrap(cls, name, f"io.sink/{name}", SINK_RECORDS.get(name))
        self._wrap(Observability, "record_marker", "obs/record_marker")
        self._wrap(Observability, "marker_emitted", "obs/marker_emitted")
        self._wrap(JobFabric, "submit", "fabric/submit")
        self._wrap(JobFabric, "run", "fabric/run")

    def _install_kernel(self) -> None:
        """``Kernel.run`` is a span; so is ``call_at`` (scheduling), and the
        action it is handed becomes a ``runtime.task/action`` span when the
        kernel dispatches it. ``call_after``/``call_soon`` go through it."""
        self._wrap(Kernel, "run", "sim.kernel/run")
        schedule = self.span("sim.kernel/schedule", Kernel.__dict__["call_at"])
        as_action = self.spanner("runtime.task/action")

        def call_at(kernel: Kernel, at: float, action: Callable[[], None]) -> Any:
            return schedule(kernel, at, as_action(action))

        self._patch(Kernel, "call_at", call_at)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def self_s(self, prefix: str) -> float:
        """Self seconds of every span kind under ``prefix``."""
        return sum(entry[1] for kind, entry in self.kinds.items() if kind.startswith(prefix))

    def calls(self, prefix: str) -> int:
        return sum(entry[0] for kind, entry in self.kinds.items() if kind.startswith(prefix))

    def records(self, prefix: str) -> int:
        return sum(entry[2] for kind, entry in self.kinds.items() if kind.startswith(prefix))

    def ledger(self) -> list[str]:
        """One line per span kind: calls, self seconds, records."""
        rows = sorted(self.kinds.items(), key=lambda item: -item[1][1])
        return [
            f"{kind:<32} {calls:>10} calls {seconds:>9.4f} s self {records:>9} records"
            for kind, (calls, seconds, records) in rows
            if calls
        ]

"""Operator-local snapshot/restore: a fresh instance restored from a
snapshot continues exactly like the instance the snapshot was taken from.

Each case feeds a prefix, snapshots, then runs the same suffix through the
original and through a new instance restored from the snapshot. The suffix
is chosen so its output depends on the snapshotted state (buffered records,
learned bounds, counters, graph state), and the original runs first, so a
snapshot aliasing live state would be caught as well.
"""

import pytest

from helpers import StubContext

from repro.core.events import Punctuation, Record, Watermark
from repro.graphs.operator import GraphStreamOperator
from repro.graphs.paths import IncrementalSSSP
from repro.graphs.stream import EdgeEvent
from repro.hardware.accel import AcceleratorModel, MicroBatchAcceleratedOperator
from repro.progress.ooo import KSlackBufferOperator
from repro.progress.punctuations import PunctuationFilter, PunctuationInjector


def _records(*event_times):
    return [Record(value=i, event_time=t) for i, t in enumerate(event_times)]


def _edges(*edges):
    return [Record(value=EdgeEvent("insert", u, v, w), event_time=float(i)) for i, (u, v, w) in enumerate(edges)]


CASES = {
    # K grows to 2.0 on the straggler; 3.0/4.0 stay buffered, the late 0.5
    # is dropped against the restored release line, the +inf watermark
    # flushes what the snapshot held.
    "k-slack": (
        lambda: KSlackBufferOperator(initial_k=0.0),
        _records(1.0, 3.0, 1.0, 4.0),
        [Record(value="late", event_time=0.5), Record(value="x", event_time=4.5), Watermark(float("inf"))],
        ("k", "dropped_late", "buffered"),
    ),
    # Three records seen before the snapshot; the third after it crosses
    # every_n and punctuates from the restored max event time.
    "punctuation-injector": (
        lambda: PunctuationInjector(every_n=3, disorder_bound=0.5),
        _records(5.0, 2.0),
        _records(1.0, 1.5, 0.5),
        (),
    ),
    # The restored bound 5.0 routes the 3.0 record to the late side output.
    "punctuation-filter": (
        lambda: PunctuationFilter(),
        [Punctuation(attribute="event_time", bound=5.0), *_records(6.0, 4.0)],
        _records(3.0, 7.0),
        ("violations",),
    ),
    # Distances after the suffix inserts (one as a raw payload) depend on
    # the restored edges.
    "graph-sssp": (
        lambda: GraphStreamOperator(IncrementalSSSP(0), lambda sssp, event: sssp.distance(event.v)),
        _edges((0, 1, 2.0), (1, 2, 3.0)),
        [Record(value={"u": 2, "v": 3, "weight": 1.0}), *_edges((0, 2, 1.0))],
        (),
    ),
    # Three records wait in the micro-batch; the fourth completes it.
    "micro-batch-accel": (
        lambda: MicroBatchAcceleratedOperator(
            lambda values: [sum(values)], batch_size=4, model=AcceleratorModel(launch_overhead=1e-5, speedup=8.0)
        ),
        _records(1.0, 2.0, 3.0),
        [Record(value=10, event_time=4.0), *_records(5.0)],
        ("batches_run",),
    ),
}


def _drive(operator, elements, ctx):
    for element in elements:
        ctx.current_key_value = getattr(element, "key", None)
        operator.on_element(element, ctx)


@pytest.mark.parametrize("case", sorted(CASES))
def test_restored_instance_continues_like_the_original(case):
    make, prefix, suffix, fields = CASES[case]
    original = make()
    _drive(original, prefix, StubContext())
    snapshot = original.snapshot_state()
    assert snapshot is not None

    before = StubContext()
    _drive(original, suffix, before)
    original.flush(before)

    restored = make()
    restored.restore_state(snapshot)
    after = StubContext()
    _drive(restored, suffix, after)
    restored.flush(after)

    assert after.emitted == before.emitted
    assert after.side == before.side
    for field in fields:
        assert getattr(restored, field) == getattr(original, field), field


@pytest.mark.parametrize("case", sorted(CASES))
def test_suffix_output_depends_on_the_snapshot(case):
    """Guards the test above: without the restore, the suffix would read
    differently, so equal outputs there really come from the snapshot."""
    make, prefix, suffix, _ = CASES[case]
    original = make()
    _drive(original, prefix, StubContext())
    with_state = StubContext()
    _drive(original, suffix, with_state)
    original.flush(with_state)

    blank = make()
    without_state = StubContext()
    _drive(blank, suffix, without_state)
    blank.flush(without_state)

    assert (with_state.emitted, with_state.side) != (without_state.emitted, without_state.side)

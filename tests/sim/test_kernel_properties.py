"""Property tests for the kernel's dispatch order.

A random program of scheduling, cancellation, job teardown, suspension and
bounded runs is executed on the real :class:`Kernel` and on a
reference model that keeps one flat list of events and always dispatches
the live minimum by ``(time, seq)``. Both must dispatch the same events in
the same order at the same virtual times.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Kernel

JOBS = ("a", "b")


class _ModelEvent:
    def __init__(self, time, seq, action, job):
        self.time = time
        self.seq = seq
        self.action = action
        self.job = job
        self.dead = False


class ModelKernel:
    """Reference dispatcher: a linear scan for the live (time, seq) minimum."""

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._pending: list[_ModelEvent] = []
        self._parked: dict[str, list[_ModelEvent]] = {}
        self._current = None

    def now(self):
        return self._now

    def call_at(self, time, action):
        event = _ModelEvent(max(time, self._now), self._seq, action, self._current)
        self._seq += 1
        self._pending.append(event)
        return event

    def call_soon(self, action):
        return self.call_at(self._now, action)

    def call_after(self, delay, action):
        return self.call_at(self._now + delay, action)

    @contextmanager
    def job_scope(self, job):
        previous, self._current = self._current, job
        try:
            yield
        finally:
            self._current = previous

    @staticmethod
    def cancel(event):
        event.dead = True

    def cancel_job(self, job):
        for event in self._pending:
            if event.job == job:
                event.dead = True
        self._parked.pop(job, None)

    def suspend_job(self, job):
        self._parked.setdefault(job, [])

    def resume_job(self, job):
        for event in self._parked.pop(job, None) or ():
            if event.dead:
                continue
            event.time = max(self._now, event.time)
            event.seq = self._seq
            self._seq += 1
            self._pending.append(event)

    def run(self, until=None):
        while self._pending:
            event = min(self._pending, key=lambda e: (e.time, e.seq))
            self._pending.remove(event)
            if event.dead:
                continue
            if event.job is not None and event.job in self._parked:
                self._parked[event.job].append(event)
                continue
            if until is not None and event.time > until:
                self._pending.append(event)
                self._now = max(self._now, until)
                return
            self._now = max(self._now, float(event.time))
            previous, self._current = self._current, event.job
            try:
                event.action()
            finally:
                self._current = previous
        if until is not None:
            self._now = max(self._now, until)

    @property
    def pending_events(self):
        queued = sum(1 for e in self._pending if not e.dead)
        parked = sum(1 for events in self._parked.values() for e in events if not e.dead)
        return queued + parked

    def live_events_of(self, job):
        return sum(1 for e in self._pending if e.job == job and not e.dead)


class RealKernel:
    """The kernel under test, behind the model's interface."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    @staticmethod
    def cancel(handle):
        handle.cancel()


class ProgramRunner:
    """Runs one op program. Top-level steps take ops in order; the event
    with id ``e`` runs ops ``e * per_event ...`` (cyclically) when it
    dispatches, so each event's behaviour is fixed by its id alone. At most
    ``MAX_EVENTS`` events are scheduled, which bounds every program."""

    MAX_EVENTS = 150

    def __init__(self, kernel, ops, per_event):
        self.kernel = kernel
        self.ops = ops
        self.per_event = per_event
        self.top_level = 0
        self.handles = []
        #: (event id, virtual time) per dispatch, in dispatch order
        self.log = []
        self.now_types = set()

    def apply(self, index):
        if not self.ops:
            return
        kind, arg, job = self.ops[index % len(self.ops)]
        kernel = self.kernel
        if kind in ("at", "at_int", "soon", "after"):
            if len(self.handles) >= self.MAX_EVENTS:
                return
            event_id = len(self.handles)

            def action(event_id=event_id):
                self.fire(event_id)

            with kernel.job_scope(job) if job is not None else nullcontext():
                if kind == "at":
                    handle = kernel.call_at(kernel.now() + arg, action)
                elif kind == "at_int":
                    handle = kernel.call_at(math.ceil(kernel.now()) + arg, action)
                elif kind == "soon":
                    handle = kernel.call_soon(action)
                else:
                    handle = kernel.call_after(arg, action)
            self.handles.append(handle)
        elif kind == "cancel":
            if self.handles:
                kernel.cancel(self.handles[arg % len(self.handles)])
        elif kind == "cancel_job":
            kernel.cancel_job(job)
        elif kind == "suspend":
            kernel.suspend_job(job)
        else:
            kernel.resume_job(job)

    def step(self):
        self.apply(self.top_level)
        self.top_level += 1

    def fire(self, event_id):
        now = self.kernel.now()
        self.now_types.add(type(now))
        self.log.append((event_id, now))
        for j in range(self.per_event):
            self.apply(event_id * self.per_event + j)

    def execute(self, roots, horizons):
        """Returns the (pending, live-per-job) census after each phase."""
        census = []

        def snapshot():
            census.append(
                (self.kernel.pending_events, tuple(self.kernel.live_events_of(j) for j in JOBS))
            )

        for _ in range(roots):
            self.step()
        snapshot()
        for horizon in horizons:
            self.kernel.run(until=max(horizon, self.kernel.now()))
            snapshot()
            self.step()
        self.kernel.run()
        snapshot()
        for job in JOBS:
            self.kernel.resume_job(job)
        self.kernel.run()
        snapshot()
        return census


_job = st.sampled_from((None,) + JOBS)
#: few distinct delays, so same-time ties between heap and bucket are common
_ops = st.one_of(
    st.tuples(st.just("at"), st.sampled_from([0.0, 0.5, 1.0]), _job),
    st.tuples(st.just("at_int"), st.integers(0, 2), _job),
    st.tuples(st.just("soon"), st.none(), _job),
    st.tuples(st.just("after"), st.sampled_from([0.0, 0.5]), _job),
    st.tuples(st.just("cancel"), st.integers(0, 1000), st.none()),
    st.tuples(st.just("cancel_job"), st.none(), st.sampled_from(JOBS)),
    st.tuples(st.just("suspend"), st.none(), st.sampled_from(JOBS)),
    st.tuples(st.just("resume"), st.none(), st.sampled_from(JOBS)),
)


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(_ops, max_size=40),
    roots=st.integers(1, 12),
    per_event=st.integers(0, 3),
    horizons=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0]), max_size=4).map(sorted),
    same_time_bucket=st.booleans(),
    compact_min_dead=st.sampled_from([1, 4, 256]),
)
def test_dispatch_order_matches_reference_model(
    ops, roots, per_event, horizons, same_time_bucket, compact_min_dead
):
    kernel = Kernel(
        same_time_bucket=same_time_bucket,
        compact_min_dead=compact_min_dead,
        compact_threshold=0.25,
    )
    real = ProgramRunner(RealKernel(kernel), ops, per_event)
    model = ProgramRunner(ModelKernel(), ops, per_event)
    real_census = real.execute(roots, horizons)
    model_census = model.execute(roots, horizons)
    assert real.log == model.log
    assert real_census == model_census
    assert real.now_types <= {float}
    assert kernel.dispatched_events == len(real.log)
    assert kernel.dead_pending >= 0


class _Incomparable:
    """An action that refuses every comparison."""

    def __init__(self, seen, label):
        self.seen = seen
        self.label = label

    def __call__(self):
        self.seen.append(self.label)

    def __lt__(self, other):
        raise AssertionError("action compared")

    __le__ = __gt__ = __ge__ = __lt__

    def __eq__(self, other):
        raise AssertionError("action compared")

    __hash__ = object.__hash__


@pytest.mark.parametrize("same_time_bucket", [True, False])
def test_handles_and_actions_are_never_compared(same_time_bucket):
    kernel = Kernel(same_time_bucket=same_time_bucket, compact_min_dead=1, compact_threshold=0.1)
    seen = []
    handles = []
    scheduled = []  # (time, label) in scheduling order
    for i in range(40):
        handles.append(kernel.call_at(float(i % 4), _Incomparable(seen, i)))
        kernel.call_soon(_Incomparable(seen, ("soon", i)))
        scheduled += [(i % 4, i), (0, ("soon", i))]
    with kernel.job_scope("a"):
        for i in range(10):
            kernel.call_at(1.0, _Incomparable(seen, ("a", i)))
    kernel.suspend_job("a")
    for handle in handles[::3]:
        handle.cancel()  # compaction re-heapifies the survivors
    assert kernel.compactions >= 1
    kernel.run(until=2.0)  # the job's events park as their time arrives
    kernel.resume_job("a")  # ... and re-enter the queue at now, in order
    kernel.run()

    def live(times):
        in_order = sorted(
            (entry for entry in enumerate(scheduled) if entry[1][0] in times),
            key=lambda entry: (entry[1][0], entry[0]),
        )
        return [
            label for _, (_, label) in in_order if isinstance(label, tuple) or label % 3
        ]

    assert seen == live({0, 1, 2}) + [("a", i) for i in range(10)] + live({3})


def test_now_stays_float_after_an_int_time_event():
    kernel = Kernel()
    seen = []
    kernel.call_at(2, lambda: seen.append(kernel.now()))
    kernel.call_after(1, lambda: seen.append(kernel.now()))
    kernel.run()
    assert seen == [1.0, 2.0]
    assert all(type(t) is float for t in seen)
    assert type(kernel.now()) is float
    kernel.run(until=4)
    assert type(kernel.now()) is float


def test_scheduling_in_the_past_raises():
    kernel = Kernel()
    kernel.call_at(5.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError, match="cannot schedule"):
        kernel.call_at(4.0, lambda: None)
    with pytest.raises(SimulationError, match="cannot schedule"):
        kernel.call_at(4, lambda: None)
    # Within the tolerance the event is clamped to now, not refused.
    seen = []
    kernel.call_at(5.0 - 1e-13, lambda: seen.append(kernel.now()))
    kernel.run()
    assert seen == [5.0]

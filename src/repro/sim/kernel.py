"""Discrete-event simulation (DES) kernel.

The kernel is the substrate every other subsystem runs on: the physical
runtime schedules record deliveries, timer firings, checkpoint triggers,
failure injections and recovery actions as timestamped events on a single
priority queue. Ties are broken by insertion sequence, which makes every
simulation fully deterministic for a given seed.

Events scheduled for exactly ``now()`` — the dominant case for zero-latency
intra-machine hops — take a heap-free fast path: a FIFO *same-time bucket*
drained before the heap is consulted. The dispatch order is still the exact
global (time, insertion-seq) order, so the bucket is a pure optimisation.

Dispatch is built to cost as little host time per event as possible:

* **One object per event.** :class:`EventHandle` is the scheduled event
  itself — a ``__slots__`` record of time, seq, action and namespace fields
  — and :meth:`Kernel.call_at` returns it directly, so scheduling allocates
  one event object, not an event plus a separate handle.
* **Tuple-keyed heap.** The heap holds ``(time, seq, handle)`` tuples, so
  every sift is a C-level tuple comparison. ``seq`` is unique per kernel,
  so two entries never tie and a handle is never compared.

Multi-tenancy (``repro.fabric``) adds three kernel-level mechanisms:

* **Job namespaces** — every event carries the tag of the job that
  scheduled it. The tag propagates automatically: events scheduled while a
  tagged event is dispatching inherit its tag, so one ``job_scope(tag)``
  around a job's entry point namespaces its entire transitive event tree.
* **O(1) bulk teardown** — :meth:`cancel_job` bumps the namespace's
  generation counter instead of touching the heap; an event whose recorded
  generation is stale is dead on arrival. Tearing down a job costs the same
  whether the heap holds a hundred events or a million.
* **Lazy compaction** — cancelled and torn-down events sit in the heap
  until their timestamp would arrive. When the dead fraction crosses a
  threshold, the heap is rebuilt without them in one O(n) pass, so mass
  cancellation (job teardown, timer-cancel storms, checkpoint timeouts)
  cannot permanently inflate dispatch cost.

:meth:`suspend_job`/:meth:`resume_job` additionally let a slot scheduler
preempt a job: a suspended job's events are parked as their dispatch times
arrive and are replayed, in order, when the job is resumed.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Callable, Iterator

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock


class EventHandle:
    """A scheduled event, returned by :meth:`Kernel.call_at`; allows cancellation.

    The handle *is* the event: the kernel's heap holds ``(time, seq,
    handle)`` tuples and its same-time bucket holds handles directly. Only
    :meth:`Kernel.call_at` creates handles, filling the slots itself so the
    per-event path makes no ``__init__`` call.

    Slots:
        time, seq: the dispatch key; ``seq`` is unique per kernel.
        action: the callable to dispatch.
        cancelled: set by :meth:`cancel`; the kernel skips the event.
        job: namespace tag of the job that scheduled the event (None =
            untagged).
        gen: the job's generation at schedule time; a mismatch with the
            current generation means the job was torn down since, so the
            event is dead.
        in_queue: True while the event sits in the heap or the same-time
            bucket (exact dead-event accounting across cancel, teardown and
            compaction).
    """

    __slots__ = ("time", "seq", "action", "cancelled", "job", "gen", "in_queue", "_kernel")

    def cancel(self) -> None:
        """Mark the event so the kernel skips it on dispatch."""
        self._kernel._note_cancel(self)


_new_handle = object.__new__


class Kernel:
    """Deterministic discrete-event scheduler with a virtual clock.

    Typical usage::

        kernel = Kernel()
        kernel.call_at(1.0, lambda: print("one second in"))
        kernel.run()
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        same_time_bucket: bool = True,
        compact_threshold: float = 0.5,
        compact_min_dead: int = 256,
    ) -> None:
        self.clock = clock or VirtualClock()
        #: heap of ``(time, seq, handle)``: ``seq`` is unique, so ordering
        #: is a C-level tuple compare that never reaches the handle
        self._queue: list[tuple[float, int, EventHandle]] = []
        #: FIFO bucket for events scheduled at exactly ``now()`` — the
        #: dominant case for zero-latency local hops. Bucket events skip the
        #: heap entirely; dispatch order is still the global (time, seq)
        #: order, so enabling the bucket is observably identical.
        self._soon: deque[EventHandle] = deque()
        self._same_time_bucket = same_time_bucket
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._dispatched = 0
        #: optional observer invoked with the event time after every
        #: dispatch (profiling); None on the production path — the cost is
        #: one attribute test per event
        self.dispatch_observer: Callable[[float], None] | None = None
        # --- job namespaces ------------------------------------------------
        #: job tag → current generation; bumped by cancel_job (O(1) teardown)
        self._job_gens: dict[str, int] = {}
        #: job tag → live (non-dead) events currently in queue/bucket
        self._live_by_job: dict[str, int] = {}
        #: namespace active during dispatch; events scheduled inherit it
        self._current_job: str | None = None
        #: job tag → events parked while the job is suspended (slot sched)
        self._parked: dict[str, list[EventHandle]] = {}
        #: per-base-name counters for unique job tags on this kernel
        self._job_tag_counts: dict[str, int] = {}
        # --- lazy compaction ----------------------------------------------
        #: dead (cancelled or stale-generation) events still in queue/bucket
        self._dead_pending = 0
        #: compact when dead events exceed this fraction of the queue ...
        self.compact_threshold = compact_threshold
        #: ... and this absolute floor (avoids thrashing on tiny queues)
        self.compact_min_dead = compact_min_dead
        #: number of compaction passes run (bench/regression visibility)
        self.compactions = 0
        #: number of cancel_job teardowns performed
        self.jobs_cancelled = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to run at absolute virtual ``time``."""
        now = self.clock._now
        if time < now - 1e-12:
            raise SimulationError(
                f"cannot schedule event at {time} before now={now}"
            )
        job = self._current_job
        if job is None:
            gen = 0
        else:
            gen = self._job_gens.get(job, 0)
            self._live_by_job[job] = self._live_by_job.get(job, 0) + 1
        due_now = time <= now
        if due_now:
            time = now
        seq = next(self._seq)
        event = _new_handle(EventHandle)
        event.time = time
        event.seq = seq
        event.action = action
        event.cancelled = False
        event.job = job
        event.gen = gen
        event.in_queue = True
        event._kernel = self
        if due_now and self._same_time_bucket:
            self._soon.append(event)
        else:
            heappush(self._queue, (time, seq, event))
        return event

    def call_after(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to run ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.clock._now + delay, action)

    def call_soon(self, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at the current time, after queued same-time events."""
        return self.call_at(self.clock._now, action)

    # ------------------------------------------------------------------
    # job namespaces
    # ------------------------------------------------------------------
    @contextmanager
    def job_scope(self, job: str | None) -> Iterator[None]:
        """Tag every event scheduled inside the block (and, transitively,
        events scheduled while those dispatch) with ``job``."""
        previous = self._current_job
        self._current_job = job
        try:
            yield
        finally:
            self._current_job = previous

    @property
    def current_job(self) -> str | None:
        """Namespace of the currently dispatching event (None outside)."""
        return self._current_job

    def unique_job_tag(self, base: str) -> str:
        """A namespace tag unique on this kernel (``base``, ``base#2``, ...)."""
        count = self._job_tag_counts.get(base, 0)
        self._job_tag_counts[base] = count + 1
        return base if count == 0 else f"{base}#{count + 1}"

    def cancel_job(self, job: str) -> int:
        """Bulk-cancel every event in ``job``'s namespace — O(1) in heap size.

        The namespace's generation counter is bumped; events recorded under
        the old generation die lazily at dispatch (or are swept by the next
        compaction pass). Events the job parks while suspended are dropped
        too. Returns the number of events condemned. The namespace remains
        usable: events scheduled *after* the call get the new generation.
        """
        condemned = self._live_by_job.pop(job, 0)
        self._dead_pending += condemned
        self._job_gens[job] = self._job_gens.get(job, 0) + 1
        parked = self._parked.pop(job, None)
        if parked:
            condemned += len(parked)
        self.jobs_cancelled += 1
        self._maybe_compact()
        return condemned

    def job_generation(self, job: str) -> int:
        """Current generation of a namespace (0 = never torn down)."""
        return self._job_gens.get(job, 0)

    def live_events_of(self, job: str) -> int:
        """Live queued events in ``job``'s namespace (excludes parked)."""
        return self._live_by_job.get(job, 0)

    # ------------------------------------------------------------------
    # suspension (slot scheduling)
    # ------------------------------------------------------------------
    def suspend_job(self, job: str) -> None:
        """Park ``job``'s events instead of dispatching them.

        Events already in the heap stay there; each is parked when its
        dispatch time arrives, preserving (time, seq) order. Idempotent."""
        self._parked.setdefault(job, [])

    def resume_job(self, job: str) -> int:
        """Undo :meth:`suspend_job`: replay parked events in park order.

        A parked event whose time has passed fires at ``now()``; future
        timers keep their absolute times. Relative order among the parked
        events is preserved (fresh sequence numbers in park order), so a
        suspended job observes exactly the event order it would have seen
        running uninterrupted — shifted in time, identical in sequence.
        Returns the number of events replayed.
        """
        parked = self._parked.pop(job, None)
        if not parked:
            return 0
        now = self.clock.now()
        replayed = 0
        for event in parked:
            if self._is_dead(event):
                continue
            event.time = max(now, event.time)
            event.seq = next(self._seq)
            event.in_queue = True
            self._live_by_job[job] = self._live_by_job.get(job, 0) + 1
            if event.time <= now and self._same_time_bucket:
                self._soon.append(event)
            else:
                heappush(self._queue, (event.time, event.seq, event))
            replayed += 1
        return replayed

    def job_suspended(self, job: str) -> bool:
        """True while ``job`` is suspended."""
        return job in self._parked

    # ------------------------------------------------------------------
    # dead-event accounting & compaction
    # ------------------------------------------------------------------
    def _is_dead(self, event: EventHandle) -> bool:
        # run() repeats this test inline; keep the two in step.
        if event.cancelled:
            return True
        job = event.job
        return job is not None and event.gen != self._job_gens.get(job, 0)

    def _note_cancel(self, event: EventHandle) -> None:
        """Account an individual cancellation exactly once."""
        if event.cancelled:
            return
        if self._is_dead(event):
            # Already condemned by a job teardown; just mark the flag.
            event.cancelled = True
            return
        event.cancelled = True
        if event.in_queue:
            self._dead_pending += 1
            if event.job is not None:
                self._live_by_job[event.job] = self._live_by_job.get(event.job, 1) - 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self._dead_pending < self.compact_min_dead:
            return
        total = len(self._queue) + len(self._soon)
        if self._dead_pending <= self.compact_threshold * total:
            return
        self._compact()

    def _compact(self) -> None:
        """Rebuild queue structures without dead events (one O(n) pass).

        Mutates in place: ``run()`` holds local references to both
        structures, so rebinding them would silently detach the loop."""
        self._queue[:] = [entry for entry in self._queue if not self._is_dead(entry[2])]
        heapify(self._queue)
        if any(self._is_dead(e) for e in self._soon):
            kept = [e for e in self._soon if not self._is_dead(e)]
            self._soon.clear()
            self._soon.extend(kept)
        self._dead_pending = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Dispatch events in timestamp order.

        Args:
            until: stop once the clock would pass this virtual time. Events
                at exactly ``until`` are still dispatched.
            max_events: safety valve against runaway feedback loops.

        Returns:
            The virtual time at which the simulation quiesced or stopped.
        """
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        # Hot attributes bound to locals; the dead-event test and the clock
        # advance are inlined (same checks as _is_dead/advance_to).
        queue = self._queue
        soon = self._soon
        clock = self.clock
        job_gens = self._job_gens
        parked = self._parked
        live_by_job = self._live_by_job
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        outer_job = self._current_job
        try:
            while queue or soon:
                if self._stopped:
                    break
                if self._dispatched >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                # Bucket events are at the current time; the heap may still
                # hold a same-time event scheduled *earlier* — preserve the
                # global (time, seq) tie-break by comparing heads.
                if soon:
                    head = soon[0]
                    if queue:
                        top = queue[0]
                        if top[0] <= head.time and top[1] < head.seq:
                            event = heappop(queue)[2]
                        else:
                            event = soon.popleft()
                    else:
                        event = soon.popleft()
                else:
                    event = heappop(queue)[2]
                event.in_queue = False
                job = event.job
                if job is None:
                    if event.cancelled:
                        self._dead_pending -= 1
                        continue
                else:
                    if event.cancelled or event.gen != job_gens.get(job, 0):
                        self._dead_pending -= 1
                        continue
                    if job in parked:
                        # Suspended job: park in arrival order for resume_job.
                        parked[job].append(event)
                        live_by_job[job] = live_by_job.get(job, 1) - 1
                        continue
                time = event.time
                if time > horizon:
                    # Put it back for a later run() call and advance to the horizon.
                    event.in_queue = True
                    heappush(queue, (time, event.seq, event))
                    clock.advance_to(until)
                    break
                now = clock._now
                if time > now:
                    clock._now = float(time)
                elif time < now - 1e-12:
                    raise SimulationError(f"time travel: clock at {now}, event at {time}")
                if job is not None:
                    live_by_job[job] = live_by_job.get(job, 1) - 1
                self._dispatched += 1
                observer = self.dispatch_observer
                if observer is not None:
                    observer(time)
                self._current_job = job
                try:
                    event.action()
                finally:
                    self._current_job = outer_job
            else:
                if until is not None:
                    clock.advance_to(until)
        finally:
            self._running = False
        return self.clock.now()

    def stop(self) -> None:
        """Request the current :meth:`run` to return after the active event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current virtual time."""
        return self.clock._now

    @property
    def pending_events(self) -> int:
        queued = sum(1 for entry in self._queue if not self._is_dead(entry[2])) + sum(
            1 for e in self._soon if not self._is_dead(e)
        )
        parked = sum(
            1
            for events in self._parked.values()
            for e in events
            if not self._is_dead(e)
        )
        return queued + parked

    @property
    def queue_size(self) -> int:
        """Physical queue size including dead-but-unswept events."""
        return len(self._queue) + len(self._soon)

    @property
    def dead_pending(self) -> int:
        """Dead events awaiting lazy removal (dispatch skip or compaction)."""
        return self._dead_pending

    @property
    def dispatched_events(self) -> int:
        return self._dispatched

    def __repr__(self) -> str:
        return (
            f"Kernel(now={self.now():.6f}, pending={self.pending_events}, "
            f"dispatched={self._dispatched})"
        )


class PeriodicTimer:
    """Repeatedly invokes a callback on the kernel until cancelled.

    Used for heartbeats, watermark emission intervals, checkpoint intervals
    and elasticity control loops.
    """

    def __init__(
        self,
        kernel: Kernel,
        interval: float,
        action: Callable[[], None],
        start_delay: float | None = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self._kernel = kernel
        self._interval = interval
        self._action = action
        self._active = True
        self._handle = kernel.call_after(
            interval if start_delay is None else start_delay, self._fire
        )

    def _fire(self) -> None:
        if not self._active:
            return
        self._action()
        if self._active:
            self._handle = self._kernel.call_after(self._interval, self._fire)

    def cancel(self) -> None:
        """Stop firing; the in-flight event is skipped."""
        self._active = False
        self._handle.cancel()

    @property
    def active(self) -> bool:
        return self._active

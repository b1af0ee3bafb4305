"""Profiling hooks: flame-style aggregation of virtual CPU per operator.

The kernel's cost model already charges every element a virtual duration
(processing cost + timers + state latency + ``ctx.add_cost``); the profiler
attributes those charges to semicolon-joined flame paths
(``task;lane``) so hot operators show up in one aggregation.

All quantities are virtual seconds, so profiles are deterministic and
comparable across runs.
"""

from __future__ import annotations


class Profiler:
    """Accumulates virtual-seconds by flame path."""

    #: lanes the task runtime charges automatically per element
    LANES = ("process", "timers", "state", "extra")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: flame path ("task;lane") → virtual s
        self.samples: dict[str, float] = {}
        #: kernel dispatch counts bucketed by whole virtual second
        self.events_by_second: dict[int, int] = {}

    # ------------------------------------------------------------------
    def charge(self, path: str, seconds: float) -> None:
        """Attribute ``seconds`` of virtual CPU to a flame path."""
        if seconds <= 0.0:
            return
        self.samples[path] = self.samples.get(path, 0.0) + seconds

    def on_dispatch(self, time: float) -> None:
        """Kernel dispatch observer: one tick per event, bucketed."""
        bucket = int(time)
        self.events_by_second[bucket] = self.events_by_second.get(bucket, 0) + 1

    # ------------------------------------------------------------------
    def flame(self, operator: str | None = None) -> dict[str, float]:
        """Flame-style view: path → inclusive virtual seconds, sorted.

        ``operator`` filters to paths whose root frame starts with it
        (subtask suffixes included).
        """
        items = sorted(self.samples.items())
        if operator is None:
            return dict(items)
        return {
            path: seconds
            for path, seconds in items
            if path.split(";", 1)[0].startswith(operator)
        }

    def total(self, operator: str | None = None) -> float:
        """Total virtual seconds charged (lane-level paths only, so a
        deeper sub-path is not double counted)."""
        return sum(
            seconds
            for path, seconds in self.flame(operator).items()
            if len(path.split(";")) == 2
        )

    def __repr__(self) -> str:
        return f"Profiler(enabled={self.enabled}, paths={len(self.samples)})"

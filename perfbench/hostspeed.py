"""Host-speed probe that runs alongside a timed pass.

On a shared host the speed of the same Python code drifts by tens of
percent over seconds to minutes, as other tenants load the machine, so
host seconds from two runs are not comparable as measured. While a pass
runs, :class:`HostProbe` interrupts it every :data:`INTERVAL_S` host
seconds (``SIGALRM``) and times a fixed integer spin that touches no
program state and allocates no tracked objects. The median spin time says
how fast the host ran the interpreter during that pass, so a pass's host
seconds can be rescaled to a fixed reference host speed::

    normalised_s = (wall_s - probe.spent()) * REFERENCE_SPIN_S / probe.median()

The program cannot change the spin, so a faster program still reads as
faster; the spin itself costs about 2% of the pass and is subtracted.
"""

from __future__ import annotations

import signal
import statistics
import time

#: host seconds between two spins
INTERVAL_S = 0.1
#: loop iterations of one spin: long enough (about 2 ms) that the cache and
#: branch-predictor state the program leaves behind costs little of it
SPIN_ITERATIONS = 16_000
#: median spin time on the host the benchmark was defined on (2-vCPU Intel
#: Xeon guest, CPython 3.11); only fixes the scale of normalised figures
REFERENCE_SPIN_S = 2.2e-3

_scratch = [0] * 64


def spin(iterations: int = SPIN_ITERATIONS) -> int:
    """A fixed amount of interpreter work: integer arithmetic and list
    stores into a preallocated list."""
    scratch = _scratch
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFF
        scratch[i & 63] = acc
    return acc


def timed_spin() -> float:
    """Host seconds of one :func:`spin`."""
    started = time.perf_counter()
    spin()
    return time.perf_counter() - started


class HostProbe:
    """Times :func:`spin` every :data:`INTERVAL_S` while armed (a context
    manager); one probe per pass."""

    def __init__(self) -> None:
        self.spins: list[float] = []

    def _on_alarm(self, _signum, _frame) -> None:
        self.spins.append(timed_spin())

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self) -> float:
        """Host seconds the spins took out of the pass."""
        return sum(self.spins)

    def median(self) -> float:
        """Median spin time; a pass too short for any spin (a smoke run)
        times three after it instead."""
        return statistics.median(self.spins or [timed_spin() for _ in range(3)])

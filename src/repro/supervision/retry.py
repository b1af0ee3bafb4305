"""Transient-fault retry envelope for external systems.

Stream jobs talk to systems the supervisor does not control — remote state
stores, transactional sinks — and those fail *transiently* (timeouts,
throttles, leader elections) far more often than they fail for good. This
module provides:

* :class:`ScriptedOutage` — a deterministic transient-failure plan, pluggable
  into ``RemoteStore.fault_hook`` / ``TransactionalSink.commit_fault_hook``;
* :class:`RetryPolicy` — bounded exponential backoff with optional jitter
  and a cumulative timeout budget;
* :class:`RetryingStore` — a client-side wrapper over a
  :class:`~repro.state.external.RemoteStore` that retries, and — in
  graceful-degradation mode — serves stale reads from its local cache and
  buffers writes while the store is down, flushing them in order once it
  answers again. Degraded windows are recorded into
  :class:`~repro.runtime.metrics.RecoveryMetrics` as degraded-time.

The retry loop is synchronous (state access happens inside a task's
processing step, which cannot yield to the kernel mid-record); the backoff
it *would* have slept is accounted in :attr:`RetryingStore.total_backoff`
rather than advancing virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import RetryExhausted, TransientFault
from repro.runtime.metrics import RecoveryMetrics
from repro.sim.random import SimRandom


class ScriptedOutage:
    """Deterministic transient-failure plan for an external system.

    Fails the next ``fail_next`` operations (count-based), and/or every
    operation while ``now() < until`` (time-based, given a clock). Install
    via :meth:`as_hook` on any component exposing a fault hook.
    """

    def __init__(
        self,
        fail_next: int = 0,
        until: float | None = None,
        now: Callable[[], float] | None = None,
    ) -> None:
        self.remaining = fail_next
        self.until = until
        self._now = now
        self.faults_injected = 0

    def fail_next(self, count: int = 1) -> None:
        """Arm ``count`` more one-shot failures."""
        self.remaining += count

    def should_fail(self) -> bool:
        """Consume one failure decision (count-based plans decrement)."""
        if self.until is not None and self._now is not None and self._now() < self.until:
            self.faults_injected += 1
            return True
        if self.remaining > 0:
            self.remaining -= 1
            self.faults_injected += 1
            return True
        return False

    def as_hook(self) -> Callable[[Any], None]:
        """A fault hook raising :class:`TransientFault` per this plan."""

        def hook(op: Any) -> None:
            if self.should_fail():
                raise TransientFault(f"scripted outage: {op!r} failed transiently")

        return hook


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: at most ``max_attempts`` tries, delays
    ``base_delay * multiplier^(attempt-1)`` capped at ``max_delay``, with
    optional jitter and a cumulative ``timeout`` budget across one
    operation's retries."""

    max_attempts: int = 4
    base_delay: float = 1e-3
    multiplier: float = 2.0
    max_delay: float = 0.05
    jitter: float = 0.0
    timeout: float | None = None

    def delay_for(
        self, attempt: int, rng: SimRandom | None = None, elapsed: float = 0.0
    ) -> float | None:
        """Backoff before the retry following failed attempt #``attempt``
        (1-based); ``None`` = give up (attempts or timeout budget spent)."""
        if attempt >= self.max_attempts:
            return None
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter > 0.0 and rng is not None:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        if self.timeout is not None and elapsed + delay > self.timeout:
            return None
        return delay


class RetryingStore:
    """Retry/timeout/degradation envelope over a remote key-value store.

    Duck-types :class:`~repro.state.external.RemoteStore` (``get``/``put``/
    ``delete``/``keys`` plus the latency attributes), so it drops straight
    under an :class:`~repro.state.external.ExternalStateBackend`.

    With ``degraded_mode=False`` (default), exhausting retries raises
    :class:`RetryExhausted`. With ``degraded_mode=True`` the wrapper
    degrades gracefully instead: reads are served *stale* from the local
    cache of previously seen values, writes are buffered (read-your-writes
    via the cache) and flushed in order on the first successful contact.
    Degraded windows are recorded in ``recorder`` (a
    :class:`RecoveryMetrics`) under ``component``.
    """

    def __init__(
        self,
        store: Any,
        policy: RetryPolicy | None = None,
        rng: SimRandom | None = None,
        degraded_mode: bool = False,
        recorder: RecoveryMetrics | None = None,
        component: str = "store/remote",
        now: Callable[[], float] | None = None,
    ) -> None:
        self.store = store
        self.policy = policy or RetryPolicy()
        self._rng = rng
        self.degraded_mode = degraded_mode
        self._recorder = recorder
        self.component = component
        self._now = now or (lambda: 0.0)
        self.read_latency = store.read_latency
        self.write_latency = store.write_latency
        self.total_retries = 0
        #: backoff the retries would have slept (virtual bookkeeping)
        self.total_backoff = 0.0
        self.stale_reads = 0
        self.buffered_writes = 0
        self._cache: dict[tuple[str, Any], Any] = {}
        #: ordered journal of writes awaiting a reachable store
        self._write_buffer: list[tuple[str, str, Any, Any]] = []
        self._degraded = False

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while serving stale reads / buffering writes."""
        return self._degraded

    def pending_writes(self) -> int:
        """Writes buffered while the store is unreachable."""
        return len(self._write_buffer)

    def _attempt(self, op: str, call: Callable[[], Any]) -> Any:
        attempt = 1
        elapsed = 0.0
        while True:
            try:
                return call()
            except TransientFault as fault:
                if isinstance(fault, RetryExhausted):
                    raise
                delay = self.policy.delay_for(attempt, rng=self._rng, elapsed=elapsed)
                if delay is None:
                    raise RetryExhausted(
                        f"{op}: gave up after {attempt} attempts "
                        f"({self.policy.max_attempts} max, timeout={self.policy.timeout})"
                    ) from fault
                attempt += 1
                self.total_retries += 1
                elapsed += delay
                self.total_backoff += delay

    def _enter_degraded(self) -> None:
        if not self._degraded:
            self._degraded = True
            if self._recorder is not None:
                self._recorder.begin_degraded(self.component, self._now())

    def _exit_degraded(self) -> None:
        if self._degraded and not self._write_buffer:
            self._degraded = False
            if self._recorder is not None:
                self._recorder.end_degraded(self.component, self._now())

    def _try_flush(self) -> bool:
        """Replay buffered writes in order; True when the buffer drains.
        Single attempts only — the caller's own operation is the probe."""
        while self._write_buffer:
            op, table, key, value = self._write_buffer[0]
            try:
                if op == "put":
                    self.store.put(table, key, value)
                else:
                    self.store.delete(table, key)
            except TransientFault:
                return False
            self._write_buffer.pop(0)
        self._exit_degraded()
        return True

    # ------------------------------------------------------------------
    def get(self, table: str, key: Any) -> Any:
        """Read with retry; degraded mode serves the last value seen."""
        if self._write_buffer and not self._try_flush():
            # Still down, and the buffer must apply before any fresh read
            # (read-your-writes): serve from the local cache.
            self.stale_reads += 1
            return self._cache.get((table, key))
        try:
            value = self._attempt("get", lambda: self.store.get(table, key))
        except RetryExhausted:
            if not self.degraded_mode:
                raise
            self._enter_degraded()
            self.stale_reads += 1
            return self._cache.get((table, key))
        self._exit_degraded()
        self._cache[(table, key)] = value
        return value

    def put(self, table: str, key: Any, value: Any) -> None:
        """Write with retry; degraded mode buffers for in-order replay."""
        self._cache[(table, key)] = value  # read-your-writes, even degraded
        if self._write_buffer and not self._try_flush():
            self._write_buffer.append(("put", table, key, value))
            self.buffered_writes += 1
            return
        try:
            self._attempt("put", lambda: self.store.put(table, key, value))
        except RetryExhausted:
            if not self.degraded_mode:
                raise
            self._enter_degraded()
            self._write_buffer.append(("put", table, key, value))
            self.buffered_writes += 1
            return
        self._exit_degraded()

    def delete(self, table: str, key: Any) -> None:
        """Delete with retry; degraded mode buffers like a write."""
        self._cache[(table, key)] = None
        if self._write_buffer and not self._try_flush():
            self._write_buffer.append(("delete", table, key, None))
            self.buffered_writes += 1
            return
        try:
            self._attempt("delete", lambda: self.store.delete(table, key))
        except RetryExhausted:
            if not self.degraded_mode:
                raise
            self._enter_degraded()
            self._write_buffer.append(("delete", table, key, None))
            self.buffered_writes += 1
            return
        self._exit_degraded()

    def keys(self, table: str) -> list[Any]:
        """Key scan with retry; degraded mode lists the cache's view."""
        if not self._write_buffer or self._try_flush():
            try:
                keys = self._attempt("keys", lambda: self.store.keys(table))
            except RetryExhausted:
                if not self.degraded_mode:
                    raise
                self._enter_degraded()
            else:
                self._exit_degraded()
                for key in keys:
                    self._cache.setdefault((table, key), self._cache.get((table, key)))
                return keys
        # Degraded: the cache's view of the table (insertion-ordered).
        self.stale_reads += 1
        return [k for (t, k), v in self._cache.items() if t == table and v is not None]

"""ACID transactions over shared mutable state (survey §4.2 Transactions).

S-Store's contribution was ACID guarantees on shared state *inside* a
streaming engine. This manager provides strict two-phase locking with a
NO-WAIT conflict policy (conflicts abort immediately — livelock-free and
deadlock-free, well suited to short streaming transactions), undo-log
rollback, and a simple retry loop helper.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import TransactionAborted, TransactionError


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


_MISSING = object()


@dataclass
class Transaction:
    txn_id: int
    status: TxnStatus = TxnStatus.ACTIVE
    locks: dict[Any, LockMode] = field(default_factory=dict)
    undo: list[tuple[Any, Any]] = field(default_factory=list)  # (key, old value)
    reads: int = 0
    writes: int = 0


class TransactionManager:
    """Shared store + strict 2PL (NO-WAIT) transaction manager."""

    def __init__(self) -> None:
        self._data: dict[Any, Any] = {}
        self._lock_table: dict[Any, dict[int, LockMode]] = {}
        self._ids = itertools.count(1)
        self._active: dict[int, Transaction] = {}
        self.committed = 0
        self.aborted = 0
        self.retried = 0
        self._metrics: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    def bind_metrics(self, registry: Any, prefix: str) -> None:
        """Publish commit/abort/retry counters and the lock-wait histogram
        under ``prefix`` (conventionally ``{job}/txn/{name}/0``) so
        ``metrics_snapshot()`` / ``query_metrics`` expose them. Under
        NO-WAIT every successful acquisition waits exactly 0 s — the
        histogram makes that visible rather than assumed."""
        self._metrics = {
            "commits": registry.counter(f"{prefix}/commits"),
            "aborts": registry.counter(f"{prefix}/aborts"),
            "retries": registry.counter(f"{prefix}/retries"),
            "lock_wait": registry.histogram(f"{prefix}/lock_wait_seconds"),
        }
        registry.gauge(f"{prefix}/active", lambda: len(self._active))

    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        """Start a new transaction."""
        txn = Transaction(next(self._ids))
        self._active[txn.txn_id] = txn
        return txn

    def _check(self, txn: Transaction) -> None:
        if txn.status is not TxnStatus.ACTIVE:
            raise TransactionError(f"txn {txn.txn_id} is {txn.status.value}")

    def _acquire(self, txn: Transaction, key: Any, mode: LockMode) -> None:
        holders = self._lock_table.setdefault(key, {})
        mine = holders.get(txn.txn_id)
        if mine is LockMode.EXCLUSIVE or mine is mode:
            return
        others = {tid: m for tid, m in holders.items() if tid != txn.txn_id}
        if mode is LockMode.SHARED:
            conflict = any(m is LockMode.EXCLUSIVE for m in others.values())
        else:
            conflict = bool(others)
        if conflict:
            # NO-WAIT: the requester aborts immediately.
            self.abort(txn)
            raise TransactionAborted(
                f"txn {txn.txn_id}: {mode.value}-lock conflict on {key!r}"
            )
        holders[txn.txn_id] = mode
        txn.locks[key] = mode
        if self._metrics is not None:
            self._metrics["lock_wait"].record(0.0)

    # ------------------------------------------------------------------
    def read(self, txn: Transaction, key: Any, default: Any = None) -> Any:
        """S-locked read; NO-WAIT aborts the requester on conflict."""
        self._check(txn)
        self._acquire(txn, key, LockMode.SHARED)
        txn.reads += 1
        return self._data.get(key, default)

    def write(self, txn: Transaction, key: Any, value: Any) -> None:
        """X-locked write with undo logging; NO-WAIT aborts on conflict."""
        self._check(txn)
        self._acquire(txn, key, LockMode.EXCLUSIVE)
        if not any(k == key for k, _old in txn.undo):
            txn.undo.append((key, self._data.get(key, _MISSING)))
        self._data[key] = value
        txn.writes += 1

    # ------------------------------------------------------------------
    def commit(self, txn: Transaction) -> None:
        """Make the transaction's writes permanent and release locks."""
        self._check(txn)
        txn.status = TxnStatus.COMMITTED
        self._release(txn)
        self._active.pop(txn.txn_id, None)
        self.committed += 1
        if self._metrics is not None:
            self._metrics["commits"].inc()

    def abort(self, txn: Transaction) -> None:
        """Undo the transaction's writes and release locks."""
        if txn.status is TxnStatus.ABORTED:
            return
        if txn.status is TxnStatus.COMMITTED:
            raise TransactionError(f"cannot abort committed txn {txn.txn_id}")
        for key, old in reversed(txn.undo):
            if old is _MISSING:
                self._data.pop(key, None)
            else:
                self._data[key] = old
        txn.status = TxnStatus.ABORTED
        self._release(txn)
        self._active.pop(txn.txn_id, None)
        self.aborted += 1
        if self._metrics is not None:
            self._metrics["aborts"].inc()

    def _release(self, txn: Transaction) -> None:
        for key in txn.locks:
            holders = self._lock_table.get(key)
            if holders is not None:
                holders.pop(txn.txn_id, None)
                if not holders:
                    del self._lock_table[key]
        txn.locks = {}

    # ------------------------------------------------------------------
    def run(self, body: Callable[[Transaction], Any], max_retries: int = 25) -> Any:
        """Execute ``body`` in a transaction, retrying on abort."""
        last: TransactionAborted | None = None
        for _attempt in range(max_retries):
            txn = self.begin()
            try:
                result = body(txn)
            except TransactionAborted as exc:
                last = exc
                self.retried += 1
                if self._metrics is not None:
                    self._metrics["retries"].inc()
                continue
            except Exception:
                self.abort(txn)
                raise
            self.commit(txn)
            return result
        raise TransactionAborted(f"gave up after {max_retries} retries: {last}")

    # ------------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """Non-transactional (dirty) read — used to *demonstrate* anomalies."""
        return self._data.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        """Non-transactional (dirty) write — used to demonstrate anomalies."""
        self._data[key] = value

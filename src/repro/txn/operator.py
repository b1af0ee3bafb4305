"""The ``transact`` operator: one record = one ACID transaction.

Each incoming record runs ``body(handle, value)`` against the shared
:class:`~repro.txn.store.TxnStateStore`. Under ordered locking the key set
is declared up front via ``keys_fn(value) -> (read_keys, write_keys)`` and
locks are acquired in global order (waiting, never deadlocking); under
NO-WAIT the body acquires dynamically and retries with backoff on conflict.

While a transaction is in flight the owner task holds ``_txn_hold``: its
mailbox (including checkpoint barriers) stays queued, so a barrier can
never be processed mid-transaction — the "txn never straddles a snapshot"
half of the atomic-cut argument. The commit callback emits the output
record out-of-band and releases the hold.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.operators.base import Operator, OperatorContext
from repro.errors import TransactionAborted, TransactionError
from repro.txn.manager import TxnStatus
from repro.txn.store import StoreTxn, TxnStateStore


class TxnHandle:
    """What the transaction body sees: read/write under the open txn."""

    __slots__ = ("_store", "_txn")

    def __init__(self, store: TxnStateStore, txn: StoreTxn) -> None:
        self._store = store
        self._txn = txn

    def read(self, key: Any, default: Any = None) -> Any:
        """Read ``key`` inside the transaction (own writes visible)."""
        return self._store.txn_read(self._txn, key, default)

    def write(self, key: Any, value: Any) -> None:
        """Write ``key`` inside the transaction (undone on abort)."""
        self._store.txn_write(self._txn, key, value)


def _normalize_keys(declared: Any) -> tuple:
    """Accept ``(reads, writes)`` or a bare iterable (all read+write)."""
    if isinstance(declared, tuple) and len(declared) == 2:
        reads, writes = declared
        return frozenset(reads), frozenset(writes)
    keys = frozenset(declared)
    return keys, keys


class TransactOperator(Operator):
    """Engine operator executing one serializable txn per record."""

    def __init__(
        self,
        store: TxnStateStore,
        body: Callable[[TxnHandle, Any], Any],
        keys_fn: Callable[[Any], Any] | None = None,
        op_id_fn: Callable[[Any], Any] | None = None,
        name: str = "transact",
    ) -> None:
        if store.config.locking == "ordered" and keys_fn is None:
            raise TransactionError("ordered locking requires keys_fn to declare the key set")
        self.store = store
        self.body = body
        self.keys_fn = keys_fn
        self.op_id_fn = op_id_fn
        #: the Task checkpoint machinery looks this attribute up to run the
        #: whole-store fence protocol around barriers
        self.txn_gate = store
        self._name = name
        self._task = None
        self._origin = name

    # ------------------------------------------------------------------
    def open(self, ctx: OperatorContext) -> None:
        task = getattr(ctx, "task", None)
        if task is None:
            raise TransactionError("transact runs only inside an engine task (it is never chained)")
        self._task = task
        self._origin = task.name
        self.store.bind_task(task)

    def _op_id(self, value: Any) -> Any:
        return self.op_id_fn(value) if self.op_id_fn is not None else value

    # ------------------------------------------------------------------
    def process(self, record: Any, ctx: OperatorContext) -> None:
        ctx.add_cost(self.store.config.execute_cost)
        task = self._task
        op_id = self._op_id(record.value)
        task._txn_hold = True
        incarnation = task.incarnation
        if self.store.config.locking == "nowait":
            self._attempt_nowait(record, task, op_id, 0, incarnation)
        else:
            reads, writes = _normalize_keys(self.keys_fn(record.value))
            txn = self.store.begin(task.name, op_id, declared=(reads, writes))
            plan = self.store.lock_plan(txn)
            self._acquire_next(record, task, txn, plan, 0, incarnation)

    # --- ordered path --------------------------------------------------
    def _acquire_next(self, record, task, txn, plan, index, incarnation) -> None:
        if txn.status is not TxnStatus.ACTIVE or task.incarnation != incarnation:
            return  # killed/restored while waiting; the kill cleared the hold
        while index < len(plan):
            key, mode = plan[index]
            cont = lambda i=index: self._acquire_next(  # noqa: E731
                record, task, txn, plan, i + 1, incarnation
            )
            if not self.store.acquire(txn, key, mode, cont):
                return  # parked strict-FIFO; cont fires on grant
            index += 1
        self._execute(record, task, txn, incarnation)

    def _execute(self, record, task, txn, incarnation) -> None:
        try:
            out = self.body(TxnHandle(self.store, txn), record.value)
        except Exception:
            self.store.abort(txn)
            task._txn_hold = False
            task._maybe_schedule()
            raise
        self.store.finish_attempt(
            txn, lambda: self._on_commit(record, task, out, incarnation)
        )

    # --- NO-WAIT path --------------------------------------------------
    def _attempt_nowait(self, record, task, op_id, tries, incarnation) -> None:
        if task.incarnation != incarnation or task.dead:
            return
        txn = self.store.begin(task.name, op_id, declared=None)
        try:
            out = self.body(TxnHandle(self.store, txn), record.value)
        except TransactionAborted:
            self.store.note_retry()
            if tries + 1 >= self.store.config.max_retries:
                # permanent abort: drop the record, release the hold
                task._txn_hold = False
                task._maybe_schedule()
                return
            delay = self.store.config.nowait_backoff * (tries + 1)
            task.kernel.call_after(
                delay,
                lambda: self._attempt_nowait(record, task, op_id, tries + 1, incarnation),
            )
            return
        except Exception:
            self.store.abort(txn)
            task._txn_hold = False
            task._maybe_schedule()
            raise
        self.store.finish_attempt(
            txn, lambda: self._on_commit(record, task, out, incarnation)
        )

    # --- commit completion ---------------------------------------------
    def _on_commit(self, record, task, out, incarnation) -> None:
        if task.incarnation != incarnation or task.dead:
            return
        if out is not None:
            task.collect_output(record.with_value(out))
        task._txn_hold = False
        task._flush_outputs()
        task._maybe_schedule()

    # ------------------------------------------------------------------
    def snapshot_state(self) -> Any:
        return self.store.take_operator_snapshot(self._origin)

    def restore_state(self, snapshot: Any) -> None:
        if snapshot is not None:
            self.store.restore_capture(snapshot)

    @property
    def name(self) -> str:
        return self._name

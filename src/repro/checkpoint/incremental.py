"""Incremental checkpointing: snapshot only what changed (survey §3.1).

Full snapshots scale with total state size; incremental snapshots (RocksDB
SST-upload style) scale with the churn between checkpoints. The
:class:`IncrementalSnapshotter` wraps any keyed backend, tracks dirty keys,
and produces deltas; :func:`restore_chain` folds a base + deltas back into a
backend. Experiment E5 sweeps state size vs. churn to show the crossover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import CheckpointError
from repro.state.api import KeyedStateBackend, StateDescriptor

_DELETED = b"\x00__deleted__"


@dataclass
class DeltaSnapshot:
    """Changes since the previous snapshot in the chain."""

    snapshot_id: int
    base_id: int | None  # None = this is a full (base) snapshot
    entries: dict[str, dict[Any, bytes]] = field(default_factory=dict)

    def size_bytes(self) -> int:
        """Serialized size of this snapshot's entries (cost-model input)."""
        return sum(len(d) + 16 for es in self.entries.values() for d in es.values())

    def entry_count(self) -> int:
        """Entries carried (puts + tombstones) — the captured churn."""
        return sum(len(es) for es in self.entries.values())

    @property
    def is_full(self) -> bool:
        return self.base_id is None


class IncrementalSnapshotter(KeyedStateBackend):
    """Backend wrapper that remembers which (descriptor, key) pairs changed.

    Use as the task's backend; call :meth:`delta_snapshot` at each
    checkpoint and :meth:`full_snapshot` to rebase the chain.
    """

    def __init__(self, inner: KeyedStateBackend) -> None:
        super().__init__()
        self._inner = inner
        self._dirty: set[tuple[str, Any]] = set()
        self._deleted: set[tuple[str, Any]] = set()
        self._next_id = 1
        self._last_id: int | None = None
        self.read_latency = inner.read_latency
        self.write_latency = inner.write_latency
        self.survives_task_failure = inner.survives_task_failure

    # --- delegation with dirty tracking ---------------------------------
    def register(self, descriptor: StateDescriptor) -> None:
        self._inner.register(descriptor)

    def get(self, descriptor: StateDescriptor, key: Any) -> Any:
        self.stats.reads += 1
        return self._inner.get(descriptor, key)

    def put(self, descriptor: StateDescriptor, key: Any, value: Any) -> None:
        self.stats.writes += 1
        self._dirty.add((descriptor.name, key))
        self._deleted.discard((descriptor.name, key))
        self._inner.put(descriptor, key, value)

    def delete(self, descriptor: StateDescriptor, key: Any) -> None:
        self.stats.writes += 1
        self._dirty.discard((descriptor.name, key))
        self._deleted.add((descriptor.name, key))
        self._inner.delete(descriptor, key)

    def keys(self, descriptor: StateDescriptor) -> Iterator[Any]:
        return self._inner.keys(descriptor)

    def descriptors(self) -> list[StateDescriptor]:
        return self._inner.descriptors()

    # --- snapshot chain ---------------------------------------------------
    def full_snapshot(self) -> DeltaSnapshot:
        """A base snapshot containing everything; resets dirty tracking."""
        snapshot = DeltaSnapshot(snapshot_id=self._next_id, base_id=None)
        self._next_id += 1
        for name, entries in self._inner.snapshot().items():
            snapshot.entries[name] = dict(entries)
        self._dirty.clear()
        self._deleted.clear()
        self._last_id = snapshot.snapshot_id
        return snapshot

    def delta_snapshot(self) -> DeltaSnapshot:
        """Only entries touched since the previous snapshot (falls back to a
        full snapshot if none was taken yet)."""
        if self._last_id is None:
            return self.full_snapshot()
        snapshot = DeltaSnapshot(snapshot_id=self._next_id, base_id=self._last_id)
        self._next_id += 1
        by_name = {d.name: d for d in self._inner.descriptors()}
        for name, key in self._dirty:
            descriptor = by_name.get(name)
            if descriptor is None:
                continue
            value = self._inner.get(descriptor, key)
            if value is None:
                continue
            snapshot.entries.setdefault(name, {})[key] = descriptor.serde.serialize(value)
        for name, key in self._deleted:
            snapshot.entries.setdefault(name, {})[key] = _DELETED
        self._dirty.clear()
        self._deleted.clear()
        self._last_id = snapshot.snapshot_id
        return snapshot

    # --- sizing / classic snapshots ---------------------------------------
    def snapshot(self) -> dict[str, dict[Any, bytes]]:
        """Classic full snapshot, delegated to the inner backend (does not
        touch dirty tracking — used by standby mirrors and non-chain paths)."""
        return self._inner.snapshot()

    def total_entries(self) -> int:
        """Inner backend's live entry count."""
        return self._inner.total_entries()

    def snapshot_bytes(self) -> int:
        """Inner backend's serialized snapshot volume."""
        return self._inner.snapshot_bytes()

    @property
    def last_snapshot_id(self) -> int | None:
        """Id of the most recent capture (None = nothing captured yet).

        Live migration's delta-chain handoff is only sound when this matches
        the chain store's newest link for the task: current state = chain
        replay ⊕ live dirty overlay. After a recovery the backend is fresh
        (``last_snapshot_id`` is None) while the store may hold newer links,
        and the handoff must fall back to full extraction.
        """
        return self._last_id

    def dirty_entries(self) -> tuple[set[tuple[str, Any]], set[tuple[str, Any]]]:
        """Copies of the (dirty, deleted) ``(descriptor, key)`` sets — the
        live overlay a delta-chain state handoff must ship synchronously."""
        return set(self._dirty), set(self._deleted)


class TaskChainStore:
    """Engine-side store of per-task base + delta snapshot chains.

    Each capture appends one :class:`DeltaSnapshot` link to the owning
    task's chain — unconditionally, even when the coordinator has already
    aborted the checkpoint, because the snapshotter's next delta bases on
    it; *restorability* is governed separately by the checkpoint → link
    mapping, which is only written for live checkpoints. Restores walk back
    from a link to the nearest full snapshot; when a segment reaches
    ``max_chain_length`` the next capture rebases (full snapshot) and links
    no longer needed by any retained completed checkpoint are compacted
    away.
    """

    def __init__(self, max_chain_length: int = 8, retained_checkpoints: int = 2) -> None:
        self.max_chain_length = max(1, max_chain_length)
        self.retained_checkpoints = max(1, retained_checkpoints)
        self._links: dict[str, list[DeltaSnapshot]] = {}
        #: task name -> checkpoint id -> link index (live checkpoints only)
        self._index: dict[str, dict[int, int]] = {}
        self._completed: list[int] = []
        self._completed_set: set[int] = set()
        #: chain segments restarted with a fresh full snapshot (rebase count)
        self.rebases = 0
        #: links dropped by compaction
        self.links_pruned = 0

    # --- capture-side ------------------------------------------------------
    def wants_full(self, task_name: str) -> bool:
        """Whether the next capture for ``task_name`` should rebase: no chain
        yet, or the current segment reached ``max_chain_length``."""
        links = self._links.get(task_name)
        if not links:
            return True
        segment = 0
        for link in reversed(links):
            segment += 1
            if link.is_full:
                break
        return segment >= self.max_chain_length

    def append(self, task_name: str, link: DeltaSnapshot, checkpoint_id: int | None) -> None:
        """Record one captured link; ``checkpoint_id=None`` keeps the link
        for chain continuity without making it restorable (the coordinator
        had already given up on the checkpoint when the capture landed)."""
        links = self._links.setdefault(task_name, [])
        index = self._index.setdefault(task_name, {})
        if link.is_full and links:
            self.rebases += 1
        links.append(link)
        if checkpoint_id is not None:
            index[checkpoint_id] = len(links) - 1
        if link.is_full:
            self._prune(task_name)

    def note_completed(self, checkpoint_id: int) -> None:
        """A checkpoint finished persisting: compact chains against the new
        retained set."""
        self._completed.append(checkpoint_id)
        self._completed_set.add(checkpoint_id)
        for task_name in self._links:
            self._prune(task_name)

    def note_aborted(self, checkpoint_id: int) -> None:
        """A checkpoint was abandoned (timeout, kill, epoch change): drop its
        restorability mapping; its links stay as chain interior."""
        for index in self._index.values():
            index.pop(checkpoint_id, None)

    def _prune(self, task_name: str) -> None:
        """Drop links older than the newest full snapshot that still covers
        every protected checkpoint (retained completed + in-flight)."""
        links = self._links[task_name]
        index = self._index[task_name]
        protected = set(self._completed[-self.retained_checkpoints :])
        floor = len(links) - 1
        for checkpoint_id, link_index in index.items():
            if checkpoint_id in protected or checkpoint_id not in self._completed_set:
                floor = min(floor, link_index)
        cut = 0
        for position in range(floor, -1, -1):
            if links[position].is_full:
                cut = position
                break
        if cut == 0:
            return
        self.links_pruned += cut
        self._links[task_name] = links[cut:]
        self._index[task_name] = {
            checkpoint_id: link_index - cut
            for checkpoint_id, link_index in index.items()
            if link_index >= cut
        }

    # --- restore-side ------------------------------------------------------
    def _chain_ending_at(self, task_name: str, position: int) -> list[DeltaSnapshot]:
        links = self._links[task_name]
        for start in range(position, -1, -1):
            if links[start].is_full:
                return links[start : position + 1]
        raise CheckpointError(
            f"chain for task {task_name!r} lacks a base snapshot (compacted away?)"
        )

    def chain_for(self, task_name: str, checkpoint_id: int) -> list[DeltaSnapshot]:
        """Base + deltas reproducing ``task_name``'s state at a checkpoint."""
        position = self._index.get(task_name, {}).get(checkpoint_id)
        if position is None:
            raise CheckpointError(
                f"no restorable chain link for task {task_name!r} at "
                f"checkpoint {checkpoint_id} (aborted or compacted away)"
            )
        return self._chain_ending_at(task_name, position)

    def chain_to(self, task_name: str, link: DeltaSnapshot) -> list[DeltaSnapshot]:
        """Base + deltas ending at a specific captured link (standby restores
        a capture whose checkpoint may never have completed)."""
        links = self._links.get(task_name, [])
        for position in range(len(links) - 1, -1, -1):
            if links[position] is link:
                return self._chain_ending_at(task_name, position)
        raise CheckpointError(
            f"snapshot link for task {task_name!r} is no longer in the chain"
        )

    def chain_bytes(self, task_name: str, link: DeltaSnapshot) -> int:
        """Serialized volume a restore must pull for this link's chain."""
        return sum(part.size_bytes() for part in self.chain_to(task_name, link))

    def latest_link(self, task_name: str) -> DeltaSnapshot | None:
        """The newest captured link for ``task_name`` (restorable or not);
        None when the task has no chain yet. Live migration anchors its
        delta-chain handoff here."""
        links = self._links.get(task_name)
        return links[-1] if links else None

    # --- introspection -----------------------------------------------------
    def segment_length(self, task_name: str) -> int:
        """Links in the task's current segment (since the last full)."""
        links = self._links.get(task_name)
        if not links:
            return 0
        segment = 0
        for link in reversed(links):
            segment += 1
            if link.is_full:
                break
        return segment

    def max_segment_length(self) -> int:
        """Longest current segment across tasks (chain-length gauge)."""
        return max((self.segment_length(name) for name in self._links), default=0)

    def chain_length(self, task_name: str) -> int:
        """Total links currently retained for a task."""
        return len(self._links.get(task_name, ()))


def restore_chain(target: KeyedStateBackend, chain: list[DeltaSnapshot]) -> int:
    """Fold a base + ordered deltas into ``target``; returns entries applied.

    The chain must start with a full snapshot and be ordered: each delta's
    ``base_id`` must match its predecessor's id.
    """
    if not chain:
        raise CheckpointError("empty snapshot chain")
    if not chain[0].is_full:
        raise CheckpointError("snapshot chain must start with a full snapshot")
    previous = chain[0].snapshot_id
    for delta in chain[1:]:
        if delta.base_id != previous:
            raise CheckpointError(
                f"broken chain: delta {delta.snapshot_id} bases on {delta.base_id}, "
                f"expected {previous}"
            )
        previous = delta.snapshot_id

    by_name = {d.name: d for d in target.descriptors()}
    applied = 0
    for snapshot in chain:
        for name, entries in snapshot.entries.items():
            descriptor = by_name.get(name)
            if descriptor is None:
                descriptor = StateDescriptor(name)
                target.register(descriptor)
                by_name[name] = descriptor
            for key, data in entries.items():
                if data == _DELETED:
                    target.delete(descriptor, key)
                else:
                    target.put(descriptor, key, descriptor.serde.deserialize(data))
                applied += 1
    return applied

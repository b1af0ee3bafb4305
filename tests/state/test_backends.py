"""Tests for keyed state backends: behaviour shared across implementations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StateError
from repro.state import (
    Changelog,
    ChangelogStateBackend,
    ExternalStateBackend,
    InMemoryStateBackend,
    LSMStateBackend,
    ListStateDescriptor,
    MapStateDescriptor,
    PersistentMemoryBackend,
    ReducingStateDescriptor,
    RemoteStore,
    ValueStateDescriptor,
)

BACKEND_FACTORIES = [
    ("memory", InMemoryStateBackend),
    ("lsm", lambda: LSMStateBackend(memtable_limit=4)),
    ("external", lambda: ExternalStateBackend(RemoteStore())),
    ("nvram", PersistentMemoryBackend),
    ("changelog", lambda: ChangelogStateBackend(InMemoryStateBackend(), Changelog())),
]


@pytest.fixture(params=BACKEND_FACTORIES, ids=[n for n, _f in BACKEND_FACTORIES])
def backend(request):
    return request.param[1]()


VALUE = ValueStateDescriptor("v")


class TestValueState:
    def test_default_is_none(self, backend):
        assert backend.handle(VALUE, "k").value() is None

    def test_update_and_read(self, backend):
        handle = backend.handle(VALUE, "k")
        handle.update(42)
        assert handle.value() == 42

    def test_keys_are_isolated(self, backend):
        backend.handle(VALUE, "a").update(1)
        backend.handle(VALUE, "b").update(2)
        assert backend.handle(VALUE, "a").value() == 1
        assert backend.handle(VALUE, "b").value() == 2

    def test_clear(self, backend):
        handle = backend.handle(VALUE, "k")
        handle.update(1)
        handle.clear()
        assert handle.value() is None

    def test_descriptor_default(self, backend):
        desc = ValueStateDescriptor("with-default", default=0)
        assert backend.handle(desc, "k").value() == 0

    def test_none_key_rejected(self, backend):
        with pytest.raises(StateError, match="without a key"):
            backend.handle(VALUE, None)


class TestListState:
    def test_append_and_get(self, backend):
        desc = ListStateDescriptor("l")
        handle = backend.handle(desc, "k")
        handle.add(1)
        handle.add(2)
        assert handle.get() == [1, 2]

    def test_update_replaces(self, backend):
        desc = ListStateDescriptor("l")
        handle = backend.handle(desc, "k")
        handle.add(1)
        handle.update([9])
        assert handle.get() == [9]
        handle.clear()
        assert handle.get() == []


class TestMapState:
    def test_put_get_remove(self, backend):
        desc = MapStateDescriptor("m")
        handle = backend.handle(desc, "k")
        handle.put("x", 1)
        handle.put("y", 2)
        assert handle.get("x") == 1
        assert handle.contains("y")
        handle.remove("x")
        assert not handle.contains("x")
        assert sorted(handle.keys()) == ["y"]
        handle.clear()
        assert handle.is_empty()

    def test_empty_map_cleans_up(self, backend):
        desc = MapStateDescriptor("m")
        handle = backend.handle(desc, "k")
        handle.put("x", 1)
        handle.remove("x")
        assert handle.is_empty()


class TestReducingState:
    def test_folds_through_reduce_fn(self, backend):
        desc = ReducingStateDescriptor("r", reduce_fn=lambda a, b: a + b)
        handle = backend.handle(desc, "k")
        handle.add(3)
        handle.add(4)
        assert handle.get() == 7
        handle.clear()
        assert handle.get() is None

    def test_missing_reduce_fn_rejected(self, backend):
        desc = ReducingStateDescriptor("bad")
        with pytest.raises(StateError):
            backend.handle(desc, "k")


class TestSnapshotRestore:
    def test_roundtrip_into_fresh_backend(self, backend):
        backend.handle(VALUE, "a").update({"n": 1})
        backend.handle(VALUE, "b").update({"n": 2})
        snapshot = backend.snapshot()
        fresh = InMemoryStateBackend()
        fresh.register(VALUE)
        if snapshot:  # external backends snapshot nothing (state survives)
            fresh.restore(snapshot)
            assert fresh.handle(VALUE, "a").value() == {"n": 1}
            assert fresh.handle(VALUE, "b").value() == {"n": 2}

    def test_internal_snapshot_loads_into_external_store(self):
        internal = InMemoryStateBackend()
        internal.handle(VALUE, "a").update({"n": 1})
        internal.handle(ListStateDescriptor("l"), "a").add(5)
        external = ExternalStateBackend(RemoteStore())
        external.register(VALUE)
        external.restore(internal.snapshot())
        assert external.handle(VALUE, "a").value() == {"n": 1}
        # A descriptor the store has not seen yet is registered by name.
        assert {d.name for d in external.descriptors()} == {"v", "l"}
        assert external.get(ListStateDescriptor("l"), "a") == [5]

    def test_restored_values_do_not_alias(self):
        backend = InMemoryStateBackend()
        value = {"list": [1]}
        backend.handle(VALUE, "a").update(value)
        snapshot = backend.snapshot()
        fresh = InMemoryStateBackend()
        fresh.register(VALUE)
        fresh.restore(snapshot)
        value["list"].append(2)
        assert fresh.handle(VALUE, "a").value() == {"list": [1]}

    def test_extract_keys_moves_matching_state(self, backend):
        backend.handle(VALUE, 1).update("one")
        backend.handle(VALUE, 2).update("two")
        moved = backend.extract_keys(lambda k: k == 1)
        assert backend.handle(VALUE, 1).value() is None
        assert backend.handle(VALUE, 2).value() == "two"
        assert "v" in moved and len(moved["v"]) == 1


class TestAccessStats:
    def test_reads_and_writes_counted(self, backend):
        handle = backend.handle(VALUE, "k")
        handle.update(1)
        handle.value()
        handle.value()
        assert backend.stats.writes >= 1
        assert backend.stats.reads >= 2


class TestTTL:
    def test_expired_entries_vanish(self):
        clock = {"now": 0.0}
        backend = InMemoryStateBackend(clock=lambda: clock["now"])
        desc = ValueStateDescriptor("ttl", ttl=10.0)
        backend.handle(desc, "k").update("x")
        clock["now"] = 5.0
        assert backend.handle(desc, "k").value() == "x"
        clock["now"] = 11.0
        assert backend.handle(desc, "k").value() is None

    def test_sweep_expired(self):
        clock = {"now": 0.0}
        backend = InMemoryStateBackend(clock=lambda: clock["now"])
        desc = ValueStateDescriptor("ttl", ttl=1.0)
        for key in range(5):
            backend.handle(desc, key).update(key)
        clock["now"] = 2.0
        assert backend.sweep_expired() == 5

    def test_writes_refresh_ttl(self):
        clock = {"now": 0.0}
        backend = InMemoryStateBackend(clock=lambda: clock["now"])
        desc = ValueStateDescriptor("ttl", ttl=10.0)
        backend.handle(desc, "k").update("x")
        clock["now"] = 8.0
        backend.handle(desc, "k").update("y")
        clock["now"] = 15.0
        assert backend.handle(desc, "k").value() == "y"


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete", "get"]),
            st.integers(min_value=0, max_value=10),
            st.integers(),
        ),
        max_size=200,
    )
)
def test_lsm_matches_dict_model(ops):
    """Property: the LSM tree behaves exactly like a dict, across memtable
    flushes, tombstones, and compactions."""
    lsm = LSMStateBackend(memtable_limit=3, compaction_fanout=3)
    model: dict = {}
    desc = ValueStateDescriptor("x")
    for op, key, value in ops:
        if op == "put":
            lsm.put(desc, key, value)
            model[key] = value
        elif op == "delete":
            lsm.delete(desc, key)
            model.pop(key, None)
        else:
            assert lsm.get(desc, key) == model.get(key)
    for key in range(11):
        assert lsm.get(desc, key) == model.get(key)
    assert sorted(lsm.keys(desc)) == sorted(model.keys())

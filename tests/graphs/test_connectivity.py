"""Incremental connected components vs the recompute baseline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.connectivity import IncrementalComponents, RecomputeComponents, UnionFind
from repro.graphs.stream import EdgeEvent


class TestUnionFind:
    def test_union_reduces_components(self):
        uf = UnionFind()
        for node in range(4):
            uf.add(node)
        assert uf.components == 4
        assert uf.union(0, 1)
        assert not uf.union(0, 1)  # already joined
        assert uf.components == 3

    def test_find_with_path_compression(self):
        uf = UnionFind()
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.find(0) == uf.find(3)


class TestIncremental:
    def test_inserts_connect(self):
        inc = IncrementalComponents()
        inc.apply(EdgeEvent("insert", 1, 2))
        inc.apply(EdgeEvent("insert", 3, 4))
        assert not inc.connected(1, 3)
        inc.apply(EdgeEvent("insert", 2, 3))
        assert inc.connected(1, 4)

    def test_delete_triggers_rebuild_and_splits(self):
        inc = IncrementalComponents()
        inc.apply(EdgeEvent("insert", 1, 2))
        inc.apply(EdgeEvent("insert", 2, 3))
        inc.apply(EdgeEvent("delete", 2, 3))
        assert inc.rebuilds == 1
        assert not inc.connected(1, 3)
        assert inc.connected(1, 2)

    def test_delete_redundant_edge_keeps_connectivity(self):
        inc = IncrementalComponents()
        for u, v in [(1, 2), (2, 3), (1, 3)]:
            inc.apply(EdgeEvent("insert", u, v))
        inc.apply(EdgeEvent("delete", 1, 3))
        assert inc.connected(1, 3)  # still via 2

    def test_delete_of_absent_edge_is_cheap(self):
        inc = IncrementalComponents()
        inc.apply(EdgeEvent("insert", 1, 2))
        rebuilds = inc.rebuilds
        inc.apply(EdgeEvent("delete", 5, 6))
        assert inc.rebuilds == rebuilds


@settings(max_examples=40, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "insert", "delete"]),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=60,
    )
)
def test_incremental_matches_recompute(events):
    """Property: incremental CC agrees with the per-event BFS baseline."""
    inc = IncrementalComponents()
    base = RecomputeComponents()
    for op, u, v in events:
        if u == v:
            continue
        event = EdgeEvent(op, u, v)
        inc.apply(event)
        base.apply(event)
        assert inc.component_count == base.component_count, events
        for a in range(10):
            for b in range(a + 1, 10):
                if a in [n for n in inc.graph.nodes()] and b in [n for n in inc.graph.nodes()]:
                    assert inc.connected(a, b) == base.connected(a, b), (a, b, events)


def test_incremental_does_less_work_on_insert_heavy_stream():
    inc = IncrementalComponents()
    base = RecomputeComponents()
    import random

    rng = random.Random(3)
    for _ in range(300):
        u, v = rng.randrange(40), rng.randrange(40)
        if u == v:
            continue
        event = EdgeEvent("insert", u, v)
        inc.apply(event)
        base.apply(event)
    assert inc.operations < base.operations / 5

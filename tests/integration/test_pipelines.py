"""Cross-package integration: realistic pipelines exercising several
subsystems together."""

from repro.core.datastream import StreamExecutionEnvironment, connect_streams
from repro.core.keys import field_selector
from repro.fault.injection import FailureInjector
from repro.io.sinks import CollectSink, TransactionalSink
from repro.io.sources import (
    CollectionWorkload,
    GraphEdgeWorkload,
    SensorWorkload,
    TransactionWorkload,
)
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.windows.assigners import SlidingEventTimeWindows, TumblingEventTimeWindows
from repro.windows.join import IntervalJoinOperator, WindowJoinOperator


class TestWindowedJoin:
    def test_window_join_pairs_by_key_and_window(self):
        env = StreamExecutionEnvironment()
        orders = env.from_collection(
            [{"k": "a", "order": 1}, {"k": "b", "order": 2}],
            name="orders",
            timestamps=[0.1, 0.2],
            watermarks=BoundedOutOfOrderness(0.05),
        )
        payments = env.from_collection(
            [{"k": "a", "pay": 10}, {"k": "a", "pay": 11}, {"k": "c", "pay": 12}],
            name="payments",
            timestamps=[0.3, 0.4, 0.5],
            watermarks=BoundedOutOfOrderness(0.05),
        )
        joined = connect_streams(orders, payments, name="join-input")
        keyed = joined.key_by(lambda pair: pair[1]["k"], name="join-key")
        sink = keyed._connect(
            "join",
            lambda: WindowJoinOperator(
                TumblingEventTimeWindows(1.0), lambda l, r: (l["order"], r["pay"])
            ),
        ).collect("joined")
        env.execute()
        assert sorted(sink.values()) == [(1, 10), (1, 11)]

    def test_interval_join_respects_bounds(self):
        env = StreamExecutionEnvironment()
        left = env.from_collection(
            [{"k": "x", "v": "L1"}], name="l", timestamps=[1.0],
            watermarks=BoundedOutOfOrderness(0.1),
        )
        right = env.from_collection(
            [{"k": "x", "v": "R-early"}, {"k": "x", "v": "R-in"}, {"k": "x", "v": "R-late"}],
            name="r",
            timestamps=[0.0, 1.5, 5.0],
            watermarks=BoundedOutOfOrderness(0.1),
        )
        joined = connect_streams(left, right, name="ij-input")
        keyed = joined.key_by(lambda pair: pair[1]["k"], name="ij-key")
        sink = keyed._connect(
            "ij",
            lambda: IntervalJoinOperator(-0.5, 1.0, lambda l, r: (l["v"], r["v"])),
        ).collect("out")
        env.execute()
        assert sink.values() == [("L1", "R-in")]


class TestExactlyOnceEndToEnd:
    def test_windowed_aggregate_with_failure_matches_clean_run(self):
        def run(with_failure):
            config = EngineConfig(checkpoints=CheckpointConfig(interval=0.1), seed=5)
            env = StreamExecutionEnvironment(config)
            sink = TransactionalSink("out")
            (
                env.from_workload(
                    SensorWorkload(count=1200, rate=4000.0, disorder=0.02, key_count=6, seed=30),
                    watermarks=BoundedOutOfOrderness(0.05),
                )
                .key_by(field_selector("sensor"), parallelism=2)
                .window(TumblingEventTimeWindows(0.1))
                .count(parallelism=2)
                .sink(sink, parallelism=1)
            )
            engine = env.build()
            if with_failure:
                def fail():
                    engine.kill_task("window-count[1]")
                    engine.recover_from_checkpoint()

                engine.kernel.call_at(0.21, fail)
            env.execute(until=60.0)
            return sorted(
                ((r.value.key, r.value.start), r.value.value) for r in sink.committed
            )

        clean = run(with_failure=False)
        failed = run(with_failure=True)
        assert clean == failed

    def test_late_data_and_failure_combined(self):
        config = EngineConfig(checkpoints=CheckpointConfig(interval=0.1), seed=6)
        env = StreamExecutionEnvironment(config)
        sink = CollectSink("out")
        (
            env.from_workload(
                SensorWorkload(count=800, rate=4000.0, disorder=0.1, key_count=4, seed=31),
                watermarks=BoundedOutOfOrderness(0.15),
            )
            .key_by(field_selector("sensor"))
            .window(TumblingEventTimeWindows(0.2), allowed_lateness=0.1)
            .count()
            .sink(sink)
        )
        engine = env.build()
        injector = FailureInjector(engine, detection_delay=0.005)
        injector.on_detection(lambda _e: engine.recover_from_checkpoint())
        injector.schedule_kill("window-count[0]", at=0.15)
        result = env.execute(until=60.0)
        assert result.finished
        # At-least-once with refinements: final counts per window cover input.
        per_window = {}
        for r in sink.results:
            per_window[(r.value.key, r.value.start)] = max(
                per_window.get((r.value.key, r.value.start), 0), r.value.value
            )
        late = result.side_output("window-count", "late")
        assert sum(per_window.values()) + len(late) >= 800


class TestMultiStageTopology:
    def test_diamond_with_union(self):
        env = StreamExecutionEnvironment()
        src = env.from_collection(range(100), name="nums")
        evens = src.filter(lambda v: v % 2 == 0, name="evens").map(lambda v: ("even", v), name="tag-e")
        odds = src.filter(lambda v: v % 2 == 1, name="odds").map(lambda v: ("odd", v), name="tag-o")
        sink = evens.union(odds).collect("all")
        env.execute()
        assert len(sink.values()) == 100
        assert sum(1 for tag, _v in sink.values() if tag == "even") == 50

    def test_broadcast_reaches_all_subtasks(self):
        env = StreamExecutionEnvironment()
        seen = []

        def observe(record, ctx):
            seen.append((ctx.subtask_index, record.value))

        src = env.from_collection([1, 2], name="ctl")
        src.broadcast().process(observe, name="obs", parallelism=3).sink(
            CollectSink("ignore"), parallelism=3
        )
        env.execute()
        assert len(seen) == 6  # 2 records x 3 subtasks
        assert {s for s, _v in seen} == {0, 1, 2}

    def test_graph_pipeline_with_incremental_sssp(self):
        from repro.graphs.operator import GraphStreamOperator
        from repro.graphs.paths import IncrementalSSSP

        env = StreamExecutionEnvironment()
        sink = (
            env.from_workload(GraphEdgeWorkload(count=300, vertex_count=20, seed=12))
            .apply_operator(
                lambda: GraphStreamOperator(
                    IncrementalSSSP(0), query=lambda algo, ev: algo.distance(10)
                ),
                name="sssp",
            )
            .collect("dist")
        )
        env.execute()
        assert len(sink.values()) == 300
        finite = [v for v in sink.values() if v != float("inf")]
        assert finite  # vertex 10 eventually reachable
        # Final incremental answer equals Dijkstra over the final graph.
        from repro.graphs.paths import RecomputeSSSP
        from repro.graphs.stream import EdgeEvent

        baseline = RecomputeSSSP(0)
        for event in GraphEdgeWorkload(count=300, vertex_count=20, seed=12).events():
            baseline.graph.apply(EdgeEvent.from_payload(event.value))
        baseline._dijkstra()
        assert abs(finite[-1] - baseline.distance(10)) < 1e-9


class TestWindowedStreamFunctions:
    """``reduce`` and ``apply`` on a windowed stream give the per-window
    answers an explicit ``aggregate`` computes."""

    VALUES = [{"k": "a" if i % 3 else "b", "v": i} for i in range(30)]

    def run(self, build):
        env = StreamExecutionEnvironment()
        windowed = (
            env.from_collection(
                self.VALUES,
                name="nums",
                timestamps=[0.1 * i for i in range(30)],
                watermarks=BoundedOutOfOrderness(0.05),
            )
            .key_by(field_selector("k"))
            .window(TumblingEventTimeWindows(1.0))
        )
        sink = build(windowed).collect("out")
        env.execute()
        return {(r.value.key, r.value.start): r.value.value for r in sink.results}

    def test_reduce_and_apply_match_aggregate(self):
        reference = self.run(
            lambda w: w.aggregate(lambda: [], lambda acc, v: acc + [v["v"]], lambda acc: acc)
        )
        assert len(reference) >= 6
        reduced = self.run(lambda w: w.reduce(lambda a, b: {"k": a["k"], "v": max(a["v"], b["v"])}))
        assert {k: v["v"] for k, v in reduced.items()} == {k: max(v) for k, v in reference.items()}
        applied = self.run(lambda w: w.apply(lambda key, window, values: sorted(v["v"] for v in values)))
        assert applied == {k: sorted(v) for k, v in reference.items()}

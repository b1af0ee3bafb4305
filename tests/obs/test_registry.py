"""Metric registry unit semantics: instruments, scoping, snapshots."""

import json

import pytest

from repro.obs.profile import Profiler
from repro.obs.registry import Counter, Gauge, Histogram, MetricRegistry


class TestInstruments:
    def test_counter_is_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_pull_function_evaluates_lazily(self):
        holder = {"v": 1}
        gauge = Gauge(lambda: holder["v"])
        assert gauge.read() == 1
        holder["v"] = 7
        assert gauge.read() == 7

    def test_gauge_set_replaces_pull_function(self):
        gauge = Gauge(lambda: 99)
        gauge.set(3)
        assert gauge.read() == 3

    def test_histogram_tracks_exact_aggregates(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.record(float(value))
        assert histogram.count == 100
        assert histogram.min == 1.0
        assert histogram.max == 100.0
        assert histogram.mean == pytest.approx(50.5)

    def test_histogram_quantiles_over_reservoir(self):
        histogram = Histogram()
        for value in range(1000):
            histogram.record(float(value))
        assert 400 <= histogram.quantile(0.5) <= 600
        assert histogram.quantile(0.99) >= 900

    def test_histogram_reservoir_is_bounded_by_stride_doubling(self):
        histogram = Histogram(capacity=32)
        for value in range(10_000):
            histogram.record(float(value))
        assert histogram.count == 10_000
        assert len(histogram._reservoir) <= 32
        # Stride doubling keeps a systematic sample, not a recent window.
        assert histogram.quantile(0.0) < 1000
        assert histogram.quantile(0.99) > 8000

    def test_empty_histogram_summary_is_zeroed(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0


class TestRegistry:
    def test_scope_builds_job_operator_subtask_paths(self):
        registry = MetricRegistry("job")
        scope = registry.scope("map", 2)
        scope.counter("records_in").inc(3)
        assert registry.snapshot()["metrics"]["job/map/2/records_in"] == 3

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricRegistry("job")
        a = registry.counter("job/x/0/n")
        b = registry.counter("job/x/0/n")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricRegistry("job")
        registry.counter("job/x/0/n")
        with pytest.raises(TypeError):
            registry.gauge("job/x/0/n")
        with pytest.raises(TypeError):
            registry.histogram("job/x/0/n")

    def test_gauge_reregistration_rebinds_pull_function(self):
        registry = MetricRegistry("job")
        registry.gauge("job/x/0/g", lambda: 1)
        registry.gauge("job/x/0/g", lambda: 2)  # reincarnation re-register
        assert registry.snapshot()["metrics"]["job/x/0/g"] == 2

    def test_snapshot_paths_are_sorted_and_json_stable(self):
        registry = MetricRegistry("job")
        registry.counter("job/b/0/n").inc()
        registry.counter("job/a/0/n").inc(2)
        registry.histogram("job/a/0/h").record(1.5)
        snapshot = registry.snapshot(now=1.25)
        assert list(snapshot["metrics"]) == sorted(snapshot["metrics"])
        assert snapshot["now"] == 1.25
        assert registry.to_json(1.25) == json.dumps(snapshot, sort_keys=True)

    def test_find_filters_by_path_fragment(self):
        registry = MetricRegistry("job")
        registry.counter("job/map/0/records_in").inc()
        registry.counter("job/sink/0/records_in").inc()
        found = registry.find("map")
        assert list(found) == ["job/map/0/records_in"]

    def test_typed_iterators_partition_instruments(self):
        registry = MetricRegistry("job")
        registry.counter("job/a/0/c")
        registry.gauge("job/a/0/g")
        registry.histogram("job/a/0/h")
        assert [p for p, _ in registry.counters()] == ["job/a/0/c"]
        assert [p for p, _ in registry.histograms()] == ["job/a/0/h"]


class TestProfiler:
    def test_charges_accumulate_per_flame_path(self):
        profiler = Profiler()
        profiler.charge("map[0];process", 0.5)
        profiler.charge("map[0];process", 0.25)
        profiler.charge("map[0];state", 0.1)
        assert profiler.flame() == {"map[0];process": 0.75, "map[0];state": 0.1}

    def test_zero_and_negative_charges_are_dropped(self):
        profiler = Profiler()
        profiler.charge("map[0];process", 0.0)
        profiler.charge("map[0];process", -1.0)
        assert profiler.flame() == {}

    def test_flame_filters_by_operator_root(self):
        profiler = Profiler()
        profiler.charge("map[0];process", 1.0)
        profiler.charge("map[1];process", 2.0)
        profiler.charge("sink[0];process", 3.0)
        assert set(profiler.flame("map")) == {"map[0];process", "map[1];process"}

    def test_total_counts_lanes_once_despite_scope_subpaths(self):
        profiler = Profiler()
        profiler.charge("map[0];extra", 1.0)
        # A sub-path overlaps the extra lane; total() must not double
        # count it.
        profiler.charge("map[0];process;lookup", 0.6)
        assert profiler.total("map") == 1.0

    def test_dispatch_observer_buckets_by_virtual_second(self):
        profiler = Profiler()
        for time in (0.1, 0.2, 1.7):
            profiler.on_dispatch(time)
        assert profiler.events_by_second == {0: 2, 1: 1}

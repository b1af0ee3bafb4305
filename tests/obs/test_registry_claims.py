"""Metric namespace claims: shared registries must reject path collisions."""

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.errors import MetricNamespaceError
from repro.io import CollectSink, SensorWorkload
from repro.obs.registry import MetricRegistry
from repro.runtime.config import EngineConfig
from repro.sim import Kernel


class TestClaims:
    def test_same_owner_reclaim_is_idempotent(self):
        registry = MetricRegistry("fabric")
        registry.claim("jobA", owner="1")
        registry.claim("jobA", owner="1")

    def test_cross_owner_same_prefix_raises(self):
        registry = MetricRegistry("fabric")
        registry.claim("jobA", owner="1")
        with pytest.raises(MetricNamespaceError):
            registry.claim("jobA", owner="2")

    def test_nested_prefix_collides(self):
        registry = MetricRegistry("fabric")
        registry.claim("jobA", owner="1")
        with pytest.raises(MetricNamespaceError):
            registry.claim("jobA/operator", owner="2")

    def test_sibling_prefixes_do_not_collide(self):
        registry = MetricRegistry("fabric")
        registry.claim("jobA", owner="1")
        registry.claim("jobAA", owner="2")  # shares characters, not a path
        registry.claim("jobB", owner="3")

    def test_enclosing_prefix_collides(self):
        registry = MetricRegistry("fabric")
        registry.claim("tenant/jobA", owner="1")
        with pytest.raises(MetricNamespaceError):
            registry.claim("tenant", owner="2")


def _pipeline(name, seed=0, profiling=False):
    env = StreamExecutionEnvironment(EngineConfig(seed=seed, profiling_enabled=profiling), name=name)
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=20, rate=2000.0, key_count=4, seed=seed))
        .key_by(field_selector("sensor"), parallelism=1)
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", parallelism=1)
        .sink(sink, parallelism=1)
    )
    return env


class TestSharedRegistryJobs:
    def test_two_jobs_same_name_on_shared_kernel_raise(self):
        """Two jobs registering the same metric namespace on one registry
        must fail admission, not silently merge each other's instruments.
        (The fabric avoids this by uniquifying job tags — this guards the
        raw Engine path.)"""
        kernel = Kernel()
        registry = MetricRegistry("fabric")
        first = _pipeline("same-name")
        first.build(kernel=kernel, registry=registry)
        second = _pipeline("same-name", seed=1)
        # Defeat the kernel's tag uniquifier to simulate a buggy platform
        # layer handing out duplicate names.
        kernel._job_tag_counts.clear()
        with pytest.raises(MetricNamespaceError):
            second.build(kernel=kernel, registry=registry)

    def test_distinct_jobs_share_registry_cleanly(self):
        kernel = Kernel()
        registry = MetricRegistry("fabric")
        a = _pipeline("jobA").build(kernel=kernel, registry=registry)
        b = _pipeline("jobB", seed=1).build(kernel=kernel, registry=registry)
        assert a.obs.registry is registry
        assert b.obs.registry is registry
        paths = registry.snapshot()["metrics"].keys()
        assert any(p.startswith("jobA/") for p in paths)
        assert any(p.startswith("jobB/") for p in paths)
        assert not any(p.startswith("jobA/") and "jobB" in p for p in paths)

    def test_fabric_tag_uniquifier_prevents_collision(self):
        """The default path: a shared kernel uniquifies duplicate graph
        names, so both engines admit and publish under distinct prefixes."""
        kernel = Kernel()
        registry = MetricRegistry("fabric")
        a = _pipeline("dup").build(kernel=kernel, registry=registry)
        b = _pipeline("dup", seed=1).build(kernel=kernel, registry=registry)
        assert a.job_tag == "dup"
        assert b.job_tag == "dup#2"
        paths = registry.snapshot()["metrics"].keys()
        assert any(p.startswith("dup/") for p in paths)
        assert any(p.startswith("dup#2/") for p in paths)

    def test_profiling_jobs_on_a_shared_kernel_chain_dispatch_observers(self):
        """A second profiling job must not replace the first one's kernel
        dispatch observer: both profilers count every shared dispatch."""
        kernel = Kernel()
        registry = MetricRegistry("fabric")
        a = _pipeline("jobA", profiling=True).build(kernel=kernel, registry=registry)
        b = _pipeline("jobB", seed=1, profiling=True).build(kernel=kernel, registry=registry)
        a.start()
        b.run()
        for engine in (a, b):
            assert sum(engine.obs.profiler.events_by_second.values()) == kernel.dispatched_events > 0

"""JobFabric lifecycle: admission, execution, teardown, queries."""

import pytest
from fabric_helpers import keyed_count_env

from repro.errors import FabricError
from repro.fabric import FabricConfig, JobFabric, sink_digest
from repro.runtime.config import CheckpointConfig
from repro.state.api import ValueStateDescriptor


class TestAdmission:
    def test_duplicate_tenant_name_raises(self):
        fabric = JobFabric(FabricConfig(slots=2))
        env, _ = keyed_count_env("dup")
        fabric.submit(env)
        env2, _ = keyed_count_env("dup", seed=1)
        with pytest.raises(FabricError):
            fabric.submit(env2)

    def test_invalid_weight_raises(self):
        fabric = JobFabric(FabricConfig(slots=2))
        env, _ = keyed_count_env("j")
        with pytest.raises(FabricError):
            fabric.submit(env, weight=0)

    def test_submit_after_run_raises(self):
        fabric = JobFabric(FabricConfig(slots=2))
        env, _ = keyed_count_env("j", count=10)
        fabric.submit(env)
        fabric.run()
        env2, _ = keyed_count_env("late")
        with pytest.raises(FabricError):
            fabric.submit(env2)

    def test_config_validation(self):
        with pytest.raises(FabricError):
            JobFabric(FabricConfig(slots=0))
        with pytest.raises(FabricError):
            JobFabric(FabricConfig(quantum=0))


class TestExecution:
    def test_many_tenants_all_finish(self):
        fabric = JobFabric(FabricConfig(slots=3, quantum=0.05))
        sinks = {}
        for i in range(10):
            env, sink = keyed_count_env(f"job{i}", seed=i, count=80)
            fabric.submit(env)
            sinks[f"job{i}"] = sink
        result = fabric.run()
        assert result.all_finished
        for name, sink in sinks.items():
            assert len(sink.results) == 80, name

    def test_teardown_is_bulk_cancel(self):
        fabric = JobFabric(FabricConfig(slots=4))
        for i in range(4):
            env, _ = keyed_count_env(f"job{i}", seed=i, count=50)
            fabric.submit(env)
        result = fabric.run()
        for handle in result.tenants.values():
            assert handle.state == "done"
            assert handle.teardown_seconds >= 0.0
        # The kernel counted one bulk teardown per tenant.
        assert fabric.kernel.jobs_cancelled == 4

    def test_summary_is_deterministic(self):
        def build_and_run():
            fabric = JobFabric(FabricConfig(slots=2, quantum=0.05))
            for i in range(5):
                env, _ = keyed_count_env(f"job{i}", seed=i, count=60)
                fabric.submit(env)
            return fabric.run().summary()

        assert build_and_run() == build_and_run()

    def test_runtime_quota_evicts_cleanly(self):
        fabric = JobFabric(FabricConfig(slots=1, quantum=0.02))
        hog_env, _ = keyed_count_env("hog", count=100_000, rate=2000.0)
        fabric.submit(hog_env, runtime_quota=0.05)
        small_env, small_sink = keyed_count_env("small", seed=1, count=50)
        fabric.submit(small_env)
        result = fabric.run()
        assert result.tenant("hog").state == "failed"
        assert "quota" in result.tenant("hog").engine.failure_reason
        # The evicted hog freed its slot; the neighbour finished normally.
        assert result.tenant("small").state == "done"
        assert len(small_sink.results) == 50

    def test_tenant_failure_does_not_stop_neighbours(self):
        fabric = JobFabric(FabricConfig(slots=2, quantum=0.05))
        bad_env, _ = keyed_count_env("bad", count=500)
        bad = fabric.submit(bad_env)
        good_env, good_sink = keyed_count_env("good", seed=1, count=100)
        fabric.submit(good_env)
        # Kill the bad tenant early into the run, with no recovery wired.
        with fabric.kernel.job_scope(bad.engine.job_tag):
            fabric.kernel.call_at(
                0.01, lambda: bad.engine.fail_job("induced failure")
            )
        result = fabric.run()
        assert result.tenant("bad").state == "failed"
        assert result.tenant("good").state == "done"
        assert len(good_sink.results) == 100


class TestMetricsIsolation:
    def test_tenants_publish_under_distinct_prefixes(self):
        fabric = JobFabric(FabricConfig(slots=4))
        for i in range(3):
            env, _ = keyed_count_env(f"job{i}", seed=i, count=30)
            fabric.submit(env)
        fabric.run()
        snapshot = fabric.metrics_snapshot()["metrics"]
        for i in range(3):
            assert any(p.startswith(f"job{i}/") for p in snapshot)
        assert any(p.startswith("__fabric__/scheduler/") for p in snapshot)

    def test_query_metrics_is_tenant_scoped(self):
        fabric = JobFabric(FabricConfig(slots=4))
        for i in range(2):
            env, _ = keyed_count_env(f"job{i}", seed=i, count=30)
            fabric.submit(env)
        fabric.run()
        found = fabric.queries.query_metrics("job0", "records_in")
        assert found
        assert all(path.startswith("job0/") for path in found)

    def test_queryable_state_routes_by_tenant(self):
        fabric = JobFabric(FabricConfig(slots=4))
        sinks = {}
        for i in range(2):
            env, sink = keyed_count_env(f"job{i}", seed=i, count=40)
            fabric.submit(env)
            sinks[f"job{i}"] = sink
        fabric.run()
        descriptor = ValueStateDescriptor("count-acc")
        # Each tenant's aggregate state is reachable and distinct: the
        # final count for a key equals that tenant's own max emission.
        for name, sink in sinks.items():
            per_key = {}
            for r in sink.results:
                per_key[r.key] = max(per_key.get(r.key, 0), r.value)
            key, expected = sorted(per_key.items())[0]
            result = fabric.queries.query(name, "count", descriptor, key)
            assert result.value == expected, name


class TestSoloEquivalence:
    def test_fabric_single_tenant_matches_dedicated_kernel(self):
        env, solo_sink = keyed_count_env("solo", count=120)
        env.execute()
        fabric = JobFabric(FabricConfig(slots=1))
        fenv, fsink = keyed_count_env("solo", count=120)
        fabric.submit(fenv)
        result = fabric.run()
        assert sink_digest(fsink) == sink_digest(solo_sink)
        # The documented per-tenant digest view reads the same sink.
        assert result.tenant("solo").digests() == {"out": sink_digest(solo_sink)}
        assert result.tenant("solo").result.sink("out") is fsink
        # Without contention the kernel-time fields match too.
        assert [
            (r.value, r.event_time, r.emitted_at) for r in fsink.results
        ] == [(r.value, r.event_time, r.emitted_at) for r in solo_sink.results]


class TestCheckpointingTenants:
    def test_checkpointing_tenant_runs_on_fabric(self):
        fabric = JobFabric(FabricConfig(slots=2, quantum=0.05))
        env, sink = keyed_count_env(
            "ckpt", count=150, checkpoints=CheckpointConfig(interval=0.01)
        )
        handle = fabric.submit(env)
        env2, _ = keyed_count_env("plain", seed=1, count=150)
        fabric.submit(env2)
        result = fabric.run()
        assert result.all_finished
        assert len(sink.results) == 150
        assert handle.engine.completed_checkpoints

"""The one-stage job, caching, failure handling."""

import pytest

from repro.engine import Context, RecordingListener
from repro.engine.errors import TaskFailedError
from repro.engine.listener import JobEnd, StageStart, TaskEnd


class TestStageGraph:
    def test_narrow_only_single_stage(self):
        with Context(mode="serial") as ctx:
            rdd = ctx.range(10, num_partitions=2).map(lambda x: x).filter(lambda x: True)
            rec = ctx.add_listener(RecordingListener())
            assert rdd.count() == 10
            (stage,) = rec.of_type(StageStart)
            assert stage.stage_kind == "result"
            assert stage.num_tasks == len(rec.of_type(TaskEnd)) == 2


class TestCacheReuse:
    def test_cached_rdd_not_recomputed(self):
        with Context(mode="serial") as ctx:
            computed = []  # serial tasks share the driver heap

            def tap(x):
                computed.append(x)
                return x

            cached = ctx.range(10, num_partitions=2).map(tap).cache()
            cached.count()
            cached.sum()
            # Second action reads the cache: tap ran only once per record.
            assert len(computed) == 10

    def test_unpersist_forces_recompute(self):
        with Context(mode="serial") as ctx:
            computed = []

            def tap(x):
                computed.append(x)
                return x

            cached = ctx.range(5, num_partitions=1).map(tap).cache()
            cached.count()
            cached.unpersist()
            cached.count()
            assert len(computed) == 10


class TestFailureHandling:
    def test_deterministic_failure_aborts(self):
        with Context(mode="serial", max_task_retries=1) as ctx:

            def boom(x):
                raise RuntimeError("kaboom")

            with pytest.raises(TaskFailedError) as exc_info:
                ctx.range(4, num_partitions=2).map(boom).collect()
            assert exc_info.value.attempts == 2

    def test_flaky_task_retried_to_success(self):
        with Context(mode="serial", max_task_retries=2) as ctx:
            attempts = {"n": 0}

            def flaky_partition(i, it):
                attempts["n"] += 1
                if attempts["n"] < 2:
                    raise RuntimeError("transient")
                return list(it)

            out = ctx.range(4, num_partitions=1).map_partitions_with_index(
                flaky_partition
            ).collect()
            assert out == [0, 1, 2, 3]
            assert attempts["n"] == 2


class TestContextLifecycle:
    def test_stopped_context_rejects_jobs(self):
        ctx = Context(mode="serial")
        rdd = ctx.range(4)
        ctx.stop()
        from repro.engine.errors import ContextStoppedError

        with pytest.raises(ContextStoppedError):
            rdd.collect()

    def test_stop_idempotent(self):
        ctx = Context(mode="serial")
        ctx.stop()
        ctx.stop()

    def test_context_manager(self):
        with Context(mode="serial") as ctx:
            assert ctx.range(3).count() == 3

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Context(mode="gpu")

    def test_metrics_recorded_per_job(self):
        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            ctx.range(10, num_partitions=4).sum()
            (job,) = rec.of_type(JobEnd)
            assert len(rec.of_type(TaskEnd)) == 4
            assert job.wall_s > 0
            assert ctx.metrics_hub.get("repro_engine_jobs_total").labels(status="ok").value == 1

"""Failure injection across executor backends."""

import threading

import pytest

from repro.engine import Context, RecordingListener
from repro.engine.errors import TaskFailedError
from repro.engine.listener import JobEnd, StageStart, TaskEnd, TaskRetry


class _FlakyOnce:
    """Callable failing the first *k* invocations (thread-safe)."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, i, it):
        with self._lock:
            self.calls += 1
            n = self.calls
        if n <= self.failures:
            raise RuntimeError(f"injected failure #{n}")
        return list(it)


class TestThreadModeFailures:
    def test_flaky_task_recovers(self):
        with Context(mode="threads", parallelism=2, max_task_retries=2) as ctx:
            flaky = _FlakyOnce(1)
            out = ctx.range(8, num_partitions=1).map_partitions_with_index(flaky).collect()
            assert out == list(range(8))

    def test_exhausted_retries_fail_job(self):
        with Context(mode="threads", parallelism=2, max_task_retries=1) as ctx:
            def always_boom(x):
                raise ValueError("permanent")

            with pytest.raises(TaskFailedError) as info:
                ctx.range(4, num_partitions=2).map(always_boom).count()
            assert isinstance(info.value.cause, ValueError)

    def test_failed_stage_retries_then_carries_post_mortem(self):
        with Context(mode="threads", parallelism=2, max_task_retries=1) as ctx:
            rec = ctx.add_listener(RecordingListener())

            def boom(x):
                raise RuntimeError("task-side")

            rdd = ctx.range(4, num_partitions=2).map(boom)
            with pytest.raises(TaskFailedError) as info:
                rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b)
            assert info.value.attempts == 2
            # Every retry belongs to the job's one stage ...
            (stage,) = rec.of_type(StageStart)
            retries = rec.of_type(TaskRetry)
            assert retries and {r.stage_id for r in retries} == {stage.stage_id}
            assert info.value.stage_id == stage.stage_id
            # ... and the failure ships the flight recorder's last window.
            kinds = [d["kind"] for d in info.value.post_mortem]
            assert kinds[:2] == ["job_start", "stage_start"]
            assert "task_retry" in kinds
            (end,) = rec.of_type(JobEnd)
            assert not end.succeeded

    def test_context_usable_after_failed_job(self):
        with Context(mode="threads", parallelism=2, max_task_retries=0) as ctx:
            def boom(x):
                raise RuntimeError("nope")

            with pytest.raises(TaskFailedError):
                ctx.range(4, num_partitions=2).map(boom).collect()
            # The same context must still run healthy jobs.
            assert ctx.range(10, num_partitions=2).sum() == 45


class TestProcessModeFailures:
    def test_worker_exception_type_preserved(self, process_ctx):
        def typed_boom(x):
            raise KeyError("worker-side key error")

        with pytest.raises(TaskFailedError) as info:
            process_ctx.range(2, num_partitions=1).map(typed_boom).collect()
        assert "KeyError" in repr(info.value.cause) or isinstance(info.value.cause, KeyError)

    def test_unpicklable_record_fails_cleanly(self, process_ctx):
        # Results must cross the process boundary; a lock cannot.
        import threading as _t

        with pytest.raises(TaskFailedError):
            process_ctx.range(2, num_partitions=1).map(lambda x: _t.Lock()).collect()

    def test_process_context_survives_failure(self, process_ctx):
        def boom(x):
            raise RuntimeError("die")

        with pytest.raises(TaskFailedError):
            process_ctx.range(2, num_partitions=1).map(boom).collect()
        assert process_ctx.range(6, num_partitions=2).sum() == 15


class TestRetrySemantics:
    def test_each_partition_retried_independently(self):
        with Context(mode="serial", max_task_retries=3) as ctx:
            per_partition_attempts = {}

            def flaky(i, it):
                per_partition_attempts[i] = per_partition_attempts.get(i, 0) + 1
                if per_partition_attempts[i] < 2:
                    raise RuntimeError("transient")
                return list(it)

            out = ctx.range(6, num_partitions=3).map_partitions_with_index(flaky).collect()
            assert out == list(range(6))
            assert all(v == 2 for v in per_partition_attempts.values())

    def test_attempt_count_in_metrics(self):
        with Context(mode="serial", max_task_retries=2) as ctx:
            attempts = {"n": 0}

            def flaky(i, it):
                attempts["n"] += 1
                if attempts["n"] == 1:
                    raise RuntimeError("once")
                return list(it)

            rec = ctx.add_listener(RecordingListener())
            ctx.range(3, num_partitions=1).map_partitions_with_index(flaky).collect()
            (task,) = rec.of_type(TaskEnd)
            assert task.attempts == 2

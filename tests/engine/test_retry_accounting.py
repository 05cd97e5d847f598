"""Retry/attempt accounting across all three executor modes.

The telemetry contract: a task that succeeds on attempt N reports
``attempts == N`` on its :class:`TaskEnd`; a task that exhausts its
retries raises :class:`TaskFailedError` carrying the original cause and
the total attempt count.  Flakiness is injected through a marker file so
the same test body works across fork boundaries (process mode).
"""

import os
import time

import pytest

from repro.engine import Context, RecordingListener
from repro.engine.errors import JobFailedError, TaskFailedError
from repro.engine.executor import ProcessExecutor, Task, TaskResult
from repro.engine.listener import TaskEnd

MODES = ["serial", "threads", "processes"]


def _flaky_via_marker(marker: str, succeed_on_attempt: int):
    """Partition function failing until *succeed_on_attempt* (file-counted)."""

    def fn(i, it):
        # Count attempts in the filesystem: visible to forked workers
        # where driver-side closures cannot share mutable state.
        path = f"{marker}.p{i}"
        calls = 1
        if os.path.exists(path):
            with open(path) as fh:
                calls = int(fh.read()) + 1
        with open(path, "w") as fh:
            fh.write(str(calls))
        if calls < succeed_on_attempt:
            raise RuntimeError(f"injected failure on attempt {calls}")
        return list(it)

    return fn


@pytest.mark.parametrize("mode", MODES)
class TestRetryAccounting:
    def test_success_on_second_attempt_recorded(self, mode, tmp_path):
        with Context(mode=mode, parallelism=2, max_task_retries=2) as ctx:
            rec = ctx.add_listener(RecordingListener())
            flaky = _flaky_via_marker(str(tmp_path / "m"), succeed_on_attempt=2)
            out = ctx.range(6, num_partitions=2).map_partitions_with_index(flaky).collect()
            assert out == list(range(6))
            assert [t.attempts for t in rec.of_type(TaskEnd)] == [2, 2]
            assert ctx.metrics_hub.get("repro_engine_task_retries_total").value == 2

    def test_first_try_success_counts_one_attempt(self, mode):
        with Context(mode=mode, parallelism=2, max_task_retries=2) as ctx:
            rec = ctx.add_listener(RecordingListener())
            assert ctx.range(8, num_partitions=2).sum() == 28
            assert [t.attempts for t in rec.of_type(TaskEnd)] == [1, 1]

    def test_exhausted_retries_raise_with_cause(self, mode, tmp_path):
        with Context(mode=mode, parallelism=2, max_task_retries=1) as ctx:
            flaky = _flaky_via_marker(str(tmp_path / "m"), succeed_on_attempt=99)
            with pytest.raises(TaskFailedError) as info:
                ctx.range(4, num_partitions=2).map_partitions_with_index(flaky).collect()
            err = info.value
            assert err.attempts == 2  # 1 try + 1 retry
            assert "injected failure" in repr(err.cause)

    def test_third_attempt_success(self, mode, tmp_path):
        with Context(mode=mode, parallelism=2, max_task_retries=3) as ctx:
            flaky = _flaky_via_marker(str(tmp_path / "m"), succeed_on_attempt=3)
            rec = ctx.add_listener(RecordingListener())
            out = ctx.range(4, num_partitions=1).map_partitions_with_index(flaky).collect()
            assert out == list(range(4))
            (task,) = rec.of_type(TaskEnd)
            assert task.attempts == 3


class TestThreadFailFast:
    def test_failure_does_not_wait_for_sleepers(self):
        """A permanently failing task aborts the wave promptly instead of
        draining behind slower siblings in submission order."""
        with Context(mode="threads", parallelism=4, max_task_retries=0) as ctx:

            def slow_or_boom(i, it):
                if i == 3:
                    raise ValueError("fail fast please")
                time.sleep(0.5)
                return list(it)

            t0 = time.perf_counter()
            with pytest.raises(TaskFailedError):
                ctx.range(8, num_partitions=4).map_partitions_with_index(
                    slow_or_boom
                ).collect()
            elapsed = time.perf_counter() - t0
            # The failing partition raises immediately; waiting the full
            # 0.5 s sleep of every healthy task would mean we blocked on
            # in-order result collection.
            assert elapsed < 0.45


class TestProcessResultCompleteness:
    def test_missing_result_raises_job_failed(self):
        tasks = [Task(stage_id=7, partition=p, body=lambda env: None) for p in range(3)]
        results = [TaskResult(0, "a"), None, TaskResult(2, "c")]
        with pytest.raises(JobFailedError, match=r"partition\(s\) \[1\] of stage 7"):
            ProcessExecutor._require_complete(results, tasks)

    def test_complete_results_pass_through(self):
        tasks = [Task(stage_id=1, partition=p, body=lambda env: None) for p in range(2)]
        results = [TaskResult(0, "a"), TaskResult(1, "b")]
        assert ProcessExecutor._require_complete(results, tasks) is results

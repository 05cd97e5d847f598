"""Where a job runs: the scheduler's small-job placement rule.

In thread mode a job whose every task reads a cached block of at most
``INLINE_TASK_BYTES`` runs on the submitting thread; any other job goes
to the pool.  ``TaskEnd.worker`` names the thread that ran each task.
"""

import contextvars
import dataclasses
import os
import threading

import numpy as np
import pytest

from repro.engine import Context, RecordingListener, scheduler
from repro.engine.errors import TaskFailedError
from repro.engine.listener import TaskEnd, TaskRetry


def _here() -> str:
    return f"{os.getpid()}/{threading.current_thread().name}"


def _workers(rec: RecordingListener) -> list:
    workers = [e.worker for e in rec.of_type(TaskEnd)]
    rec.clear()
    return workers


def _on_pool(workers: list) -> bool:
    return bool(workers) and all("/engine-worker" in w for w in workers)


@pytest.fixture
def tctx():
    with Context(mode="threads", parallelism=2, max_task_retries=2) as ctx:
        rec = ctx.add_listener(RecordingListener())
        yield ctx, rec


def _cached(ctx, nbytes: int, parts: int = 2):
    """A materialised cached RDD of *parts* one-array blocks of *nbytes*."""
    rdd = ctx.parallelize([np.zeros(nbytes // 8) for _ in range(parts)], parts).cache()
    rdd.count()
    return rdd


class TestPlacement:
    def test_a_job_over_small_cached_blocks_runs_on_the_submitting_thread(self, tctx):
        ctx, rec = tctx
        rdd = _cached(ctx, 1024)
        rec.clear()
        assert rdd.map(lambda a: a.sum()).collect() == [0.0, 0.0]
        assert _workers(rec) == [_here(), _here()]

    def test_jobs_without_cached_input_run_on_the_pool(self, tctx):
        ctx, rec = tctx
        assert ctx.range(8, num_partitions=2).map(lambda x: x * 2).sum() == 56
        assert _on_pool(_workers(rec))
        # Cached but not yet held: the job that materialises it.
        rdd = ctx.parallelize([np.zeros(4)] * 2, 2).cache()
        rdd.count()
        assert _on_pool(_workers(rec))

    def test_a_job_over_blocks_above_the_constant_runs_on_the_pool(self, tctx):
        ctx, rec = tctx
        rdd = _cached(ctx, scheduler.INLINE_TASK_BYTES + 8)
        rec.clear()
        rdd.map(lambda a: a.size).collect()
        assert _on_pool(_workers(rec))

    def test_the_constant_bounds_the_recorded_block_size(self, tctx, monkeypatch):
        ctx, rec = tctx
        rdd = _cached(ctx, 4096)
        size = max(ctx.block_store.size_of((rdd.id, p)) for p in range(2))
        monkeypatch.setattr(scheduler, "INLINE_TASK_BYTES", size)
        rec.clear()
        rdd.count()
        assert _workers(rec) == [_here(), _here()]
        monkeypatch.setattr(scheduler, "INLINE_TASK_BYTES", size - 1)
        rdd.count()
        assert _on_pool(_workers(rec))

    def test_one_large_task_sends_the_whole_job_to_the_pool(self, tctx):
        ctx, rec = tctx
        small, large = 64, scheduler.INLINE_TASK_BYTES + 8
        rdd = ctx.parallelize([np.zeros(small // 8), np.zeros(large // 8)], 2).cache()
        rdd.count()
        rec.clear()
        rdd.count()
        assert _on_pool(_workers(rec))
        rdd.take(1)
        assert _workers(rec) == [_here()]  # partition 0 alone is small

    def test_the_same_job_is_placed_the_same_way_again(self, tctx):
        ctx, rec = tctx
        small = _cached(ctx, 1024)
        large = _cached(ctx, scheduler.INLINE_TASK_BYTES + 8)
        rec.clear()
        for _ in range(5):
            small.map(lambda a: a.size).collect()
            assert _workers(rec) == [_here(), _here()]
            large.map(lambda a: a.size).collect()
            assert _on_pool(_workers(rec))

    def test_a_contextvar_set_inline_does_not_leak(self, tctx):
        ctx, rec = tctx
        var = contextvars.ContextVar("placement_probe", default="driver")
        rdd = _cached(ctx, 1024)

        def read_then_set(it):
            seen = var.get()
            var.set("task")
            return [seen for _ in it]

        rec.clear()
        assert rdd.map_partitions(read_then_set).collect() == ["driver", "driver"]
        assert _workers(rec) == [_here(), _here()]
        assert var.get() == "driver"

    def test_a_failing_inline_task_retries_then_fails_the_job(self, tctx):
        ctx, rec = tctx
        rdd = _cached(ctx, 1024)
        calls = []

        def flaky(a):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("injected")
            return a.size

        rec.clear()
        assert rdd.map(flaky).collect() == [128, 128]
        ends = rec.of_type(TaskEnd)
        assert [e.attempts for e in ends] == [3, 1]
        assert {e.worker for e in ends} == {_here()}
        assert len(rec.of_type(TaskRetry)) == 2
        rec.clear()

        def boom(a):
            raise ValueError("permanent")

        with pytest.raises(TaskFailedError) as info:
            rdd.map(boom).collect()
        assert info.value.attempts == 3
        assert isinstance(info.value.cause, ValueError)
        assert len(rec.of_type(TaskRetry)) == 3  # one task's three attempts; the job stops
        assert ctx.range(10, num_partitions=2).sum() == 45  # the context still runs

    @pytest.mark.parametrize("mode", ["serial", "processes"])
    def test_other_modes_are_unchanged(self, mode):
        with Context(mode=mode, parallelism=2) as ctx:
            rec = ctx.add_listener(RecordingListener())
            rdd = _cached(ctx, 1024)
            rec.clear()
            rdd.count()
            workers = _workers(rec)
        if mode == "serial":
            assert workers == [_here(), _here()]
        else:
            assert all(not w.startswith(f"{os.getpid()}/") for w in workers)


def _screen_text(mode: str, cohort: int, num_blocks: int, seed: int) -> str:
    from repro.sbgt.session import SBGTSession
    from repro.serve.protocol import ScreenRequest
    from repro.workflows.payloads import dump_payload, screen_payload

    request = ScreenRequest.from_payload({"cohort": cohort, "prevalence": 0.05, "seed": seed})
    prior, model, policy, config = request.build()
    config = dataclasses.replace(config, num_blocks=num_blocks)
    with Context(mode=mode, parallelism=2) as ctx:
        session = SBGTSession(ctx, prior, model, config)
        try:
            result = session.run_screen(policy, rng=seed)
        finally:
            session.close()
    return dump_payload(screen_payload(result, request=request.canonical()))


@pytest.mark.parametrize("num_blocks", [1, 2, 4])
@pytest.mark.parametrize("cohort", [12, 18])
def test_payloads_are_equal_on_serial_and_threads(cohort, num_blocks):
    """Inline (small blocks) and pooled (cohort 18 on one or two blocks) alike."""
    seed = cohort + num_blocks
    assert _screen_text("threads", cohort, num_blocks, seed) == _screen_text(
        "serial", cohort, num_blocks, seed
    )

"""Where work runs in thread mode.

Every engine job runs on the pool.  A lattice of at most
``DRIVER_PLANE_STATES`` states is held on the driver plane, so its
block kernels run on the submitting thread and post no task event; a
larger one is an RDD, and its kernels run on the pool.
``TaskEnd.worker`` names the thread that ran each task.
"""

import os
import threading

import numpy as np
import pytest

from repro.bayes.dilution import BinaryErrorModel
from repro.bayes.priors import PriorSpec
from repro.engine import Context, RecordingListener
from repro.engine.listener import TaskEnd
from repro.sbgt import distributed_lattice
from repro.sbgt.distributed_lattice import DRIVER_PLANE_STATES, DistributedLattice


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


@pytest.fixture
def kernel_threads(monkeypatch):
    """The thread each lattice block update runs on, in call order."""
    seen = []
    update = distributed_lattice.block_update

    def recording(*args):
        seen.append(_here())
        return update(*args)

    monkeypatch.setattr(distributed_lattice, "block_update", recording)
    return seen


def _lattice(ctx, states: int) -> DistributedLattice:
    return DistributedLattice.from_prior(ctx, PriorSpec(np.full(states.bit_length() - 1, 0.05)))


_NEGATIVE = BinaryErrorModel(0.99, 0.99).log_likelihood_by_count(False, 3)


class TestPlacement:
    def test_a_job_over_small_cached_blocks_runs_on_the_submitting_thread(
        self, tctx, kernel_threads
    ):
        ctx, rec = tctx
        lattice = _lattice(ctx, 1 << 12)
        rec.clear()
        lattice.update(0b111, _NEGATIVE)
        assert kernel_threads == [_here(), _here()]
        assert _workers(rec) == []
        lattice.unpersist()

    def test_jobs_without_cached_input_run_on_the_pool(self, tctx):
        ctx, rec = tctx
        assert ctx.range(8, num_partitions=2).map(lambda x: x * 2).sum() == 56
        assert _on_pool(_workers(rec))
        # Cached but not yet held: the job that materialises it.
        rdd = ctx.parallelize([np.zeros(4)] * 2, 2).cache()
        rdd.count()
        assert _on_pool(_workers(rec))

    def test_a_job_over_blocks_above_the_constant_runs_on_the_pool(self, tctx, kernel_threads):
        ctx, rec = tctx
        lattice = _lattice(ctx, DRIVER_PLANE_STATES << 1)
        rec.clear()
        lattice.update(0b111, _NEGATIVE)
        assert _on_pool(kernel_threads), kernel_threads
        assert _on_pool(_workers(rec))
        lattice.unpersist()

    def test_the_same_job_is_placed_the_same_way_again(self, tctx, kernel_threads):
        ctx, rec = tctx
        small = _lattice(ctx, 1 << 12)
        large = _lattice(ctx, DRIVER_PLANE_STATES << 1)
        blocks = _cached(ctx, 1024)
        rec.clear()
        for _ in range(5):
            small.update(0b111, _NEGATIVE)
            assert kernel_threads == [_here(), _here()]
            assert _workers(rec) == []
            kernel_threads.clear()
            large.update(0b111, _NEGATIVE)
            assert _on_pool(kernel_threads), kernel_threads
            assert _on_pool(_workers(rec))
            kernel_threads.clear()
            blocks.map(lambda a: a.size).collect()
            assert _on_pool(_workers(rec))
        small.unpersist()
        large.unpersist()

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

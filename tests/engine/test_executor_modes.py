"""The same workload across all three executor backends."""

import os
import threading

import numpy as np
import pytest

from repro.engine import Context, RecordingListener
from repro.engine.listener import TaskEnd


@pytest.fixture(scope="module", params=["serial", "threads", "processes"])
def mode_ctx(request):
    with Context(mode=request.param, parallelism=2) as c:
        yield c


class TestModeParity:
    def test_map_reduce(self, mode_ctx):
        assert mode_ctx.range(100, num_partitions=4).map(lambda x: x * 3).sum() == 14850

    def test_broadcast(self, mode_ctx):
        bc = mode_ctx.broadcast(np.arange(10))
        out = mode_ctx.range(10, num_partitions=2).map(lambda i: int(bc.value[i])).collect()
        assert out == list(range(10))

    def test_numpy_records(self, mode_ctx):
        arrays = mode_ctx.parallelize([np.arange(5), np.arange(5, 10)], 2)
        assert arrays.map(lambda a: float(a.sum())).sum() == 45.0

    def test_cached_block_chain(self, mode_ctx):
        """The product shape: NumPy blocks → map(kernel).cache() →
        tree_aggregate, a second action served from the cache, unpersist.
        Float results must be bit-identical in every mode."""
        blocks = [np.linspace(i, i + 1, 1 << 10) for i in range(4)]
        table = mode_ctx.broadcast(np.log(np.array([0.9, 0.1])))
        updated = (
            mode_ctx.parallelize(blocks, 4)
            .map(lambda b: b + table.value[0])
            .map(lambda b: b - b.max())
            .cache()
        )
        expected = [b + table.value[0] for b in blocks]
        expected = [b - b.max() for b in expected]

        def seq(acc, b):
            return acc + float(np.exp(b).sum())

        mass = updated.tree_aggregate(0.0, seq, lambda a, b: a + b)
        assert mass == sum(float(np.exp(b).sum()) for b in expected)
        again = updated.collect()  # second action: cached partitions
        assert all(np.array_equal(a, e) for a, e in zip(again, expected))
        updated.unpersist()
        assert updated.tree_aggregate(0.0, seq, lambda a, b: a + b) == mass

    def test_tree_aggregate(self, mode_ctx):
        out = mode_ctx.range(256, num_partitions=8).tree_aggregate(
            0, lambda a, x: a + x, lambda a, b: a + b, depth=2
        )
        assert out == 32640

    def test_closures_capture_locals(self, mode_ctx):
        factor = 7
        offset = 3
        out = mode_ctx.range(5, num_partitions=2).map(lambda x: x * factor + offset).collect()
        assert out == [3, 10, 17, 24, 31]

    def test_nested_function_closure(self, mode_ctx):
        def make_adder(n):
            def add(x):
                return x + n

            return add

        out = mode_ctx.range(4, num_partitions=2).map(make_adder(100)).collect()
        assert out == [100, 101, 102, 103]


class TestProcessModeSpecifics:
    def test_exception_propagates(self, process_ctx):
        from repro.engine.errors import TaskFailedError

        def boom(x):
            raise ValueError("worker-side failure")

        with pytest.raises(TaskFailedError):
            process_ctx.range(4, num_partitions=2).map(boom).collect()

    def test_worker_isolation_no_driver_mutation(self, process_ctx):
        # Mutations to a driver list inside tasks stay in the worker fork.
        shared = []
        process_ctx.range(4, num_partitions=2).map(lambda x: shared.append(x)).collect()
        assert shared == []


@pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
def test_task_end_names_where_each_mode_runs_tasks(mode):
    """Serial runs every task on the submitting thread; threads on its
    pool, over small cached blocks, 1 MiB ones and uncached input alike,
    job after job; processes in forked workers."""
    here = f"{os.getpid()}/{threading.current_thread().name}"
    with Context(mode=mode, parallelism=2) as ctx:
        rec = ctx.add_listener(RecordingListener())
        small = ctx.parallelize([np.zeros(128)] * 2, 2).cache()
        large = ctx.parallelize([np.zeros(1 << 17)] * 2, 2).cache()
        for _ in range(3):
            assert small.count() == 2
            assert large.map(lambda a: a.size).collect() == [1 << 17] * 2
            assert ctx.range(8, num_partitions=2).sum() == 28
        workers = [e.worker for e in rec.of_type(TaskEnd)]
    assert len(workers) == 18
    if mode == "serial":
        assert set(workers) == {here}
    elif mode == "threads":
        assert all(w.startswith(f"{os.getpid()}/engine-worker") for w in workers), workers
    else:
        assert not any(w.startswith(f"{os.getpid()}/") for w in workers), workers

"""RDD.checkpoint and the simulated-makespan projection (R4's, which
lives with the benchmarks that use it)."""

import pytest

from benchmarks.task_profile import projected_time, simulated_makespan, task_profile
from repro.engine import Context, RecordingListener


class TestCheckpoint:
    def test_same_contents(self, ctx):
        rdd = ctx.range(20, num_partitions=4).map(lambda x: x * 3)
        ck = rdd.checkpoint()
        assert ck.collect() == rdd.collect()
        assert ck.num_partitions == 4

    def test_no_lineage(self, ctx):
        ck = ctx.range(10, num_partitions=2).map(lambda x: x).checkpoint()
        assert ck.parent is None
        assert "CheckpointedRDD" in ck.debug_string()

    def test_truncates_recomputation(self):
        with Context(mode="serial") as ctx:
            computed = []  # serial tasks share the driver heap

            def tap(x):
                computed.append(x)
                return x

            ck = ctx.range(5, num_partitions=1).map(tap).checkpoint()
            assert len(computed) == 5  # materialized once at checkpoint time
            ck.count()
            ck.sum()
            assert len(computed) == 5  # never recomputed

    def test_empty_rdd(self, ctx):
        ck = ctx.parallelize([], 1).checkpoint()
        assert ck.collect() == []

    def test_downstream_transforms_work(self, ctx):
        ck = ctx.range(6, num_partitions=2).checkpoint()
        assert ck.map(lambda x: x * x).filter(lambda x: x % 2).collect() == [1, 9, 25]


class TestSimulatedMakespan:
    def test_single_worker_is_sum(self):
        assert simulated_makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_perfect_split(self):
        assert simulated_makespan([1.0, 1.0, 1.0, 1.0], 2) == pytest.approx(2.0)

    def test_lpt_beats_naive_order(self):
        # LPT puts the big task alone: makespan 3, not 4.
        times = [3.0, 1.0, 1.0, 1.0]
        assert simulated_makespan(times, 2) == pytest.approx(3.0)

    def test_more_workers_never_slower(self):
        times = [0.5, 0.9, 1.3, 0.2, 0.7, 1.1]
        spans = [simulated_makespan(times, w) for w in (1, 2, 4, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(spans, spans[1:]))

    def test_bounded_below_by_max_task(self):
        times = [5.0, 0.1, 0.1]
        assert simulated_makespan(times, 16) == pytest.approx(5.0)

    def test_overhead_charged_per_task(self):
        base = simulated_makespan([1.0, 1.0], 2)
        with_oh = simulated_makespan([1.0, 1.0], 2, per_task_overhead_s=0.5)
        assert with_oh == pytest.approx(base + 0.5)

    def test_empty_tasks(self):
        assert simulated_makespan([], 4) == 0.0

    def test_empty_tasks_single_worker(self):
        assert simulated_makespan([], 1) == 0.0

    def test_zero_duration_tasks(self):
        assert simulated_makespan([0.0, 0.0, 0.0], 2) == 0.0

    def test_zero_duration_tasks_still_pay_overhead(self):
        # Three zero-second tasks on two workers: LPT loads one slot
        # with two dispatches.
        assert simulated_makespan(
            [0.0, 0.0, 0.0], 2, per_task_overhead_s=0.1
        ) == pytest.approx(0.2)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            simulated_makespan([1.0], 0)

    def test_negative_workers(self):
        with pytest.raises(ValueError):
            simulated_makespan([1.0], -3)

    def test_stage_time_wrapper(self):
        assert projected_time([[1.0, 3.0]], 2) == pytest.approx(3.0)
        # Stages run one after another; each pays the per-task dispatch.
        assert projected_time([[1.0, 3.0], [2.0]], 2, 0.5) == pytest.approx(3.5 + 2.5)
        with pytest.raises(ValueError):
            projected_time([[1.0, 3.0]], 0)

    def test_profile_reads_the_event_stream(self):
        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            ctx.range(12, num_partitions=3).sum()
            ctx.range(4, num_partitions=2).sum()
        stages, per_task_overhead = task_profile(rec.events)
        assert [len(walls) for walls in stages] == [3, 2]
        assert all(wall > 0.0 for walls in stages for wall in walls)
        assert per_task_overhead > 0.0

    def test_profile_keeps_every_job(self):
        # The job list this replaced silently kept only the last 256.
        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            for _ in range(300):
                ctx.range(2, num_partitions=1).count()
        assert len(task_profile(rec.events)[0]) == 300

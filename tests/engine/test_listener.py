"""Listener bus: event stream contract across all executor modes.

The acceptance sequence for a job is::

    job_start
      stage_start (result)
        task_start/task_end per partition   [+ task_retry on failures]
      stage_end
    job_end

Task-level events interleave freely inside the stage (thread mode runs
them concurrently); the stage/job skeleton is strictly ordered.
"""

import os

import pytest

from repro.engine import Context, EngineConfig, RecordingListener
from repro.engine.listener import (
    CacheEvict,
    CacheHit,
    CacheMiss,
    EngineListener,
    EventBus,
    JobEnd,
    JobStart,
    StageEnd,
    StageStart,
    TaskEnd,
    TaskRetry,
    TaskStart,
)

MODES = ["serial", "threads", "processes"]


# ---------------------------------------------------------------------------
# EventBus unit behaviour


class _Boom(EngineListener):
    def on_event(self, event):
        raise RuntimeError("listener bug")


class TestEventBus:
    def test_falsy_until_listener_registered(self):
        bus = EventBus()
        assert not bus
        listener = bus.register(RecordingListener())
        assert bus
        bus.unregister(listener)
        assert not bus

    def test_disabled_bus_stays_falsy_and_silent(self):
        bus = EventBus(enabled=False)
        rec = bus.register(RecordingListener())
        assert not bus
        bus.post(JobStart(job_id=0))
        assert rec.events == []

    def test_duplicate_register_delivers_once(self):
        bus = EventBus()
        rec = RecordingListener()
        bus.register(rec)
        bus.register(rec)
        assert len(bus) == 1
        bus.post(JobStart(job_id=1))
        assert len(rec.events) == 1

    def test_unregister_absent_listener_is_noop(self):
        EventBus().unregister(RecordingListener())

    def test_listener_exception_swallowed_and_counted(self):
        bus = EventBus()
        bus.register(_Boom())
        rec = bus.register(RecordingListener())
        bus.post(JobStart(job_id=2))
        bus.post(JobEnd(job_id=2, wall_s=0.0))
        assert bus.dropped_errors == 2
        assert isinstance(bus.last_error, RuntimeError)
        # The healthy listener still saw everything.
        assert rec.kinds() == ["job_start", "job_end"]

    def test_event_kind_and_to_dict(self):
        e = TaskEnd(stage_id=3, partition=1, wall_s=0.5, attempts=2)
        assert e.kind == "task_end"
        d = e.to_dict()
        assert d["kind"] == "task_end"
        assert d["stage_id"] == 3 and d["attempts"] == 2
        assert "time" in d


# ---------------------------------------------------------------------------
# Full-sequence acceptance across executor modes


@pytest.mark.parametrize("mode", MODES)
class TestJobSequence:
    def test_full_event_sequence(self, mode):
        with Context(mode=mode, parallelism=2) as ctx:
            rec = ctx.add_listener(RecordingListener())
            squares = ctx.range(20, num_partitions=2).map(lambda x: x * x)
            assert squares.sum() == sum(x * x for x in range(20))

            kinds = rec.kinds()
            (job_end,) = rec.of_type(JobEnd)
            assert job_end.succeeded
            assert job_end.wall_s > 0

            # Strict job/stage skeleton around the task events.
            assert kinds[:2] == ["job_start", "stage_start"]
            assert kinds[-2:] == ["stage_end", "job_end"]
            assert sorted(kinds[2:-2]) == ["task_end"] * 2 + ["task_start"] * 2
            (stage,) = rec.of_type(StageStart)
            (stage_end,) = rec.of_type(StageEnd)
            assert stage.stage_kind == stage_end.stage_kind == "result"
            assert stage.num_tasks == 2
            assert stage.stage_id == stage_end.stage_id
            assert stage.job_id == stage_end.job_id == job_end.job_id

            # One start/end pair per partition, no retries.
            starts = rec.of_type(TaskStart)
            ends = rec.of_type(TaskEnd)
            assert all(e.stage_id == stage.stage_id for e in starts + ends)
            assert sorted(e.partition for e in starts) == [0, 1]
            assert sorted(e.partition for e in ends) == [0, 1]
            assert all(e.attempt == 1 for e in starts)
            assert all(e.attempts == 1 for e in ends)
            assert rec.of_type(TaskRetry) == []

    def test_retry_events_on_flaky_task(self, mode, tmp_path):
        with Context(mode=mode, parallelism=2, max_task_retries=2) as ctx:
            rec = ctx.add_listener(RecordingListener())
            marker = str(tmp_path / "m")

            def flaky(i, it):
                # File-counted attempts: survives the fork boundary.
                path = f"{marker}.p{i}"
                calls = 1
                if os.path.exists(path):
                    with open(path) as fh:
                        calls = int(fh.read()) + 1
                with open(path, "w") as fh:
                    fh.write(str(calls))
                if i == 1 and calls < 2:
                    raise RuntimeError("flaky partition")
                return list(it)

            out = ctx.range(8, num_partitions=2).map_partitions_with_index(flaky).collect()
            assert out == list(range(8))

            kinds = rec.kinds()
            assert kinds[0] == "job_start" and kinds[-1] == "job_end"
            assert rec.of_type(JobEnd)[0].succeeded

            (retry,) = rec.of_type(TaskRetry)
            assert retry.partition == 1
            assert retry.attempt == 1
            assert "flaky partition" in retry.error

            # Partition 1: started twice, ended once with attempts == 2.
            starts_p1 = [e for e in rec.of_type(TaskStart) if e.partition == 1]
            assert [e.attempt for e in starts_p1] == [1, 2]
            (end_p1,) = [e for e in rec.of_type(TaskEnd) if e.partition == 1]
            assert end_p1.attempts == 2
            # Partition 0 was clean.
            (end_p0,) = [e for e in rec.of_type(TaskEnd) if e.partition == 0]
            assert end_p0.attempts == 1

            # The retry sits between its task_start pair in the stream.
            events = rec.events
            i_retry = events.index(retry)
            i_start2 = events.index(starts_p1[1])
            assert events.index(starts_p1[0]) < i_retry < i_start2 < events.index(end_p1)


# ---------------------------------------------------------------------------
# Cache events


class TestCacheEvents:
    def test_miss_then_hit(self):
        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            cached = ctx.range(100, num_partitions=2).map(lambda x: x * x).cache()
            cached.count()
            misses = rec.of_type(CacheMiss)
            assert sorted(m.partition for m in misses) == [0, 1]
            assert rec.of_type(CacheHit) == []

            rec.clear()
            cached.count()
            hits = rec.of_type(CacheHit)
            assert sorted(h.partition for h in hits) == [0, 1]
            assert rec.of_type(CacheMiss) == []

    def test_eviction_under_pressure(self):
        cfg = EngineConfig(mode="serial", cache_capacity_bytes=4096)
        with Context(config=cfg) as ctx:
            rec = ctx.add_listener(RecordingListener())
            big = ctx.parallelize([bytes(2048)] * 8, 8).cache()
            big.count()
            evictions = rec.of_type(CacheEvict)
            assert evictions, "LRU pressure should have evicted partitions"
            assert all(e.size_bytes > 0 for e in evictions)


# ---------------------------------------------------------------------------
# Context integration


class TestContextIntegration:
    def test_enable_events_false_silences_registered_listener(self):
        cfg = EngineConfig(mode="serial", enable_events=False)
        with Context(config=cfg) as ctx:
            rec = ctx.add_listener(RecordingListener())
            assert ctx.range(10, num_partitions=2).sum() == 45
            assert rec.events == []

    def test_remove_listener_stops_delivery(self):
        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            ctx.range(4, num_partitions=1).count()
            seen = len(rec.events)
            assert seen > 0
            ctx.remove_listener(rec)
            ctx.range(4, num_partitions=1).count()
            assert len(rec.events) == seen

    def test_broken_listener_does_not_kill_job(self):
        with Context(mode="serial") as ctx:
            ctx.add_listener(_Boom())
            assert ctx.range(10, num_partitions=2).sum() == 45
            assert ctx.event_bus.dropped_errors > 0

    def test_stage_ids_increase_across_jobs_and_contexts(self):
        seen = []
        for _ in range(2):
            with Context(mode="serial") as ctx:
                rec = ctx.add_listener(RecordingListener())
                rdd = ctx.range(8, num_partitions=2)
                rdd.count()
                rdd.count()
                seen += [e.stage_id for e in rec.of_type(StageStart)]
        assert len(seen) == 4
        assert seen == sorted(set(seen))

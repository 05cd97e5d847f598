"""Per-task resource telemetry: CPU time, peak-RSS delta, GC counts.

Every executor mode must produce the same vocabulary — serial, threads
and processes all stamp ``cpu_s`` / ``rss_peak_kb`` / ``gc_collections``
on task results, ``TaskEnd`` events carry them on the bus (the only
copy), and the context's hub folds them from there.
"""

import time

import pytest

from repro.engine import Context, RecordingListener
from repro.engine.listener import EngineListener, JobEnd, JobStart, StageEnd, TaskEnd

TASK_END_KEYS = {
    "kind", "time", "wall", "trace_id", "span_id", "phase",
    "stage_id", "partition", "wall_s", "attempts", "t0_wall", "worker",
    "cpu_s", "rss_peak_kb", "gc_collections",
}

ENGINE_FAMILIES = {
    "repro_engine_jobs_total",
    "repro_engine_job_seconds",
    "repro_engine_tasks_total",
    "repro_engine_task_seconds",
    "repro_engine_task_cpu_seconds_total",
    "repro_engine_task_gc_collections_total",
    "repro_engine_task_rss_peak_kb",
    "repro_engine_scheduler_overhead_seconds_total",
    "repro_engine_task_retries_total",
    "repro_engine_cache_events_total",
}


def _burn(x):
    t0 = time.perf_counter()
    acc = 0
    while time.perf_counter() - t0 < 0.02:
        acc += 1
    return x + (acc and 0)


class _TaskEndCollector(EngineListener):
    def __init__(self):
        self.events = []

    def on_task_end(self, event: TaskEnd) -> None:
        self.events.append(event)


class TestSummaryKeysAcrossModes:
    @pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
    def test_summary_vocabulary_is_identical(self, mode):
        with Context(mode=mode, parallelism=2) as ctx:
            rec = ctx.add_listener(RecordingListener())
            assert ctx.parallelize(range(8), 4).map(_burn).count() == 8
            families = {f.name for f in ctx.metrics_hub.families()}
            tasks = ctx.metrics_hub.get("repro_engine_tasks_total").value
        ends = rec.of_type(TaskEnd)
        assert len(ends) == tasks == 4
        assert all(set(e.to_dict()) == TASK_END_KEYS for e in ends)
        assert {f for f in families if f.startswith("repro_engine_")} == ENGINE_FAMILIES

    @pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
    def test_busy_tasks_accumulate_cpu(self, mode):
        with Context(mode=mode, parallelism=2) as ctx:
            rec = ctx.add_listener(RecordingListener())
            ctx.parallelize(range(8), 4).map(_burn).count()
            hub_cpu_s = ctx.metrics_hub.get("repro_engine_task_cpu_seconds_total").value
        # Four 20ms spin tasks: well over 10ms of CPU in any mode.
        assert sum(e.cpu_s for e in rec.of_type(TaskEnd)) > 0.01
        assert hub_cpu_s > 0.01


class TestTaskEndCarriesTelemetry:
    @pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
    def test_task_end_fields(self, mode):
        collector = _TaskEndCollector()
        with Context(mode=mode, parallelism=2) as ctx:
            ctx.add_listener(collector)
            ctx.parallelize(range(8), 4).map(_burn).count()
        assert len(collector.events) == 4
        for event in collector.events:
            assert event.cpu_s >= 0.0
            assert event.rss_peak_kb >= 0
            assert event.gc_collections >= 0
        assert sum(e.cpu_s for e in collector.events) > 0.01

    def test_task_end_backward_compatible_positional(self):
        # Telemetry fields appended after `worker`: old positional
        # construction still works and defaults to zero.
        event = TaskEnd(1, 2, 0.5, 1)
        assert event.cpu_s == 0.0
        assert event.rss_peak_kb == 0
        assert event.gc_collections == 0


class TestStageRollups:
    def test_stage_aggregates(self):
        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            ctx.parallelize(range(8), 4).map(_burn).count()
            hub = ctx.metrics_hub
            (stage,) = rec.of_type(StageEnd)
            tasks = [t for t in rec.of_type(TaskEnd) if t.stage_id == stage.stage_id]
            assert len(tasks) == 4
            cpu = hub.get("repro_engine_task_cpu_seconds_total").value
            assert cpu == pytest.approx(sum(t.cpu_s for t in tasks))
            assert hub.get("repro_engine_task_rss_peak_kb").value == max(
                t.rss_peak_kb for t in tasks
            )
            assert hub.get("repro_engine_task_gc_collections_total").value == sum(
                t.gc_collections for t in tasks
            )
            # The stage's wall covers its slowest task.
            assert stage.wall_s >= max(t.wall_s for t in tasks)

    def test_gc_collections_counted_when_forced(self):
        import gc

        def churn(x):
            # Enough garbage to force at least one gen-0 collection.
            for _ in range(50):
                gc.collect(0)
            return x

        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            ctx.parallelize(range(2), 1).map(churn).count()
            counted = ctx.metrics_hub.get("repro_engine_task_gc_collections_total").value
        (task,) = rec.of_type(TaskEnd)
        assert task.gc_collections >= 1
        assert counted == task.gc_collections


class TestJobStamps:
    def test_wall_clock_and_trace_stamps(self):
        from repro.engine.tracing import trace_scope

        before = time.time()
        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            with trace_scope(name="stamped") as tc:
                ctx.parallelize(range(4), 2).sum()
            exemplar = ctx.metrics_hub.get("repro_engine_job_seconds").labels().exemplar
        (start,), (end,) = rec.of_type(JobStart), rec.of_type(JobEnd)
        assert start.trace_id == end.trace_id == tc.trace_id
        assert before - 1.0 <= start.wall <= end.wall <= time.time() + 1.0
        assert end.succeeded
        assert exemplar == {"trace_id": tc.trace_id, "value": end.wall_s}

    def test_failed_job_recorded_as_failed(self):
        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            with pytest.raises(Exception):
                ctx.parallelize(range(4), 2).map(lambda x: 1 // 0).count()
        (end,) = rec.of_type(JobEnd)
        assert not end.succeeded
        assert rec.of_type(StageEnd) == []


class TestHubPublication:
    def test_registry_publishes_to_context_hub(self):
        with Context(mode="serial") as ctx:
            ctx.parallelize(range(8), 4).map(_burn).count()
            hub = ctx.metrics_hub
            assert hub.get("repro_engine_jobs_total").labels(status="ok").value == 1
            assert hub.get("repro_engine_tasks_total").value == 4
            assert hub.get("repro_engine_task_cpu_seconds_total").value > 0.0
            assert hub.get("repro_engine_job_seconds").labels().count == 1

    def test_failed_job_counted_by_status(self):
        with Context(mode="serial") as ctx:
            with pytest.raises(Exception):
                ctx.parallelize(range(2), 1).map(lambda x: 1 // 0).count()
            fam = ctx.metrics_hub.get("repro_engine_jobs_total")
            assert fam.labels(status="failed").value == 1

    @pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
    def test_bare_context_counts_cache_events_too(self, mode):
        # No add_listener call: the context's own fold feeds every family.
        with Context(mode=mode, parallelism=2) as ctx:
            assert ctx.parallelize(range(8), 2).cache().count() == 8
            hub = ctx.metrics_hub
            assert hub.get("repro_engine_jobs_total").labels(status="ok").value == 1
            assert hub.get("repro_engine_tasks_total").value == 2
            cache = hub.get("repro_engine_cache_events_total")
            assert cache.labels(event="miss").value == 2
            assert hub.get("repro_engine_task_retries_total") is not None


class TestWorkerProfileRelay:
    def test_process_workers_relay_samples(self):
        from repro.obs.sampler import Sampler

        sampler = Sampler(hz=500).start().install()
        try:
            with Context(mode="processes", parallelism=2) as ctx:
                ctx.parallelize(range(8), 4).map(_burn).count()
        finally:
            sampler.stop()
            sampler.uninstall()
        folded = sampler.folded()
        assert sum(folded.values()) > 0
        assert any("_burn" in stack for stack in folded)

"""The scheduler: job → one stage → tasks → results.

``run_job`` is the single entry point every RDD action funnels through.
Every lineage is a narrow chain, so a job is exactly one ``result``
stage: one task per requested partition, each pipelining the whole chain
and applying the action's partition function to its output.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.engine.errors import JobFailedError
from repro.engine.executor import Task, TaskEnv
from repro.engine.listener import JobEnd, JobStart, StageEnd, StageStart
from repro.engine.rdd import RDD, TaskContext

__all__ = ["Scheduler"]

#: Stage ids are unique across every context of the process, so events
#: of concurrently live contexts never collide on a shared bus consumer.
_stage_ids = itertools.count()


def _installed_profile_hz() -> float:
    """Sampling rate of the installed profiler (0.0 = not profiling).

    Imported lazily — :mod:`repro.obs` sits above the engine (the
    flight-recorder precedent in :class:`~repro.engine.context.Context`).
    """
    try:
        from repro.obs.sampler import current_profile_hz
    except ImportError:  # pragma: no cover - obs layer always ships
        return 0.0
    return current_profile_hz()


def _task_body(
    rdd: RDD, partition: int, stage_id: int, func: Callable
) -> Callable[[TaskEnv], Any]:
    def body(env: TaskEnv) -> Any:
        tc = TaskContext(env, stage_id, partition)
        return func(rdd.iterator(partition, tc))

    return body


class Scheduler:
    """Drives job execution for one :class:`Context`."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        self._job_ids = itertools.count()

    # ------------------------------------------------------------------
    def run_job(
        self,
        rdd: RDD,
        func: Callable,
        partitions: Optional[Sequence[int]] = None,
        description: str = "",
    ) -> List[Any]:
        """Execute ``func`` over the given partitions of *rdd*.

        Returns one value per requested partition, in request order.
        """
        ctx = self._ctx
        ctx.ensure_running()
        bus = ctx.event_bus
        job_id = next(self._job_ids)
        t_job = time.perf_counter()
        if bus:
            bus.post(JobStart(job_id=job_id, description=description))

        succeeded = False
        try:
            if partitions is None:
                partitions = range(rdd.num_partitions)
            else:
                for p in partitions:
                    if not 0 <= p < rdd.num_partitions:
                        raise JobFailedError(
                            f"partition {p} out of range for RDD with "
                            f"{rdd.num_partitions} partitions"
                        )
            results = self._run_stage(rdd, func, list(partitions), job_id)
            succeeded = True
        except Exception as exc:
            # Failure post-mortem: ship the flight recorder's last event
            # window with the exception so the caller sees what the
            # engine was doing when the job died.
            recorder = getattr(ctx, "flight_recorder", None)
            if recorder is not None and getattr(exc, "post_mortem", None) is None:
                try:
                    exc.post_mortem = recorder.tail(64)
                except (AttributeError, TypeError):  # exceptions with __slots__
                    pass
            raise
        finally:
            if bus:
                bus.post(JobEnd(job_id, time.perf_counter() - t_job, succeeded))
        return results

    # ------------------------------------------------------------------
    def _attach_payloads(self, tasks: List[Task], rdd: RDD) -> None:
        """Process mode: give each task what its worker cannot reach —
        its own partition of the lineage's driver-held source RDD (whose
        pickle deliberately ships without data)."""
        ctx = self._ctx
        if ctx.config.mode != "processes":
            return
        worker_cache_bytes = ctx.config.worker_cache_capacity_bytes
        profile_hz = _installed_profile_hz()
        *_, source = rdd.lineage()
        for task in tasks:
            task.profile_hz = profile_hz
            task.source_payload = source.source_records(task.partition)
            task.worker_cache_bytes = worker_cache_bytes

    def _run_stage(
        self, rdd: RDD, func: Callable, parts: List[int], job_id: int
    ) -> List[Any]:
        ctx = self._ctx
        stage_id = next(_stage_ids)
        tasks = [Task(stage_id, p, _task_body(rdd, p, stage_id, func)) for p in parts]
        self._attach_payloads(tasks, rdd)
        bus = ctx.event_bus
        t0 = time.perf_counter()
        if bus:
            bus.post(StageStart(stage_id, "result", len(parts), job_id))
        by_partition = {res.partition: res.value for res in ctx.executor.submit(tasks)}
        out = [by_partition[p] for p in parts]
        if bus:
            bus.post(StageEnd(stage_id, "result", time.perf_counter() - t0, job_id))
        return out

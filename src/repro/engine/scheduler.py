"""The scheduler: job → one stage → tasks → results.

``run_job`` is the single entry point every RDD action funnels through.
Every lineage is a narrow chain, so a job is exactly one ``result``
stage: one task per requested partition, each pipelining the whole chain
and applying the action's partition function to its output.

**Placement.**  In thread mode a stage whose every task reads a cached
block of at most :data:`INLINE_TASK_BYTES` runs on the submitting
thread, in partition order; any other stage goes to the pool.  A task's
work is predicted as the recorded size of the block it reads: the
nearest ancestor in its lineage that is cached and held by the driver's
block store.  The prediction reads no clock, so the same job is placed
the same way every time, and the serial path computes bit for bit what
the pool does.  Serial mode runs everything inline already; process
mode keeps its cached blocks in the workers, out of the driver's sight.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.engine.blockstore import BlockStore
from repro.engine.errors import JobFailedError
from repro.engine.executor import Task, TaskEnv
from repro.engine.listener import JobEnd, JobStart, StageEnd, StageStart
from repro.engine.rdd import RDD, TaskContext

__all__ = ["Scheduler"]

#: Largest cached block (bytes, as the block store records it) a task may
#: read and still run on the submitting thread in thread mode.  Measured
#: crossover (docs/performance.md, "Where a job runs"; 2 CPUs): screens on
#: blocks up to 512 KiB (cohort 17 on two blocks) ran 1.15-1.55x faster
#: inline; on 1 MiB blocks (cohort 18) they ran level in the placement
#: table but 0.8x in the benchmark's dense_large; on 2 MiB and up the pool
#: won (0.6-0.8x).
INLINE_TASK_BYTES = 3 << 18  # 768 KiB

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


def _cached_input_bytes(rdd: RDD, partition: int, store: BlockStore) -> Optional[int]:
    """Size of the block a task over *partition* of *rdd* reads: that of
    its nearest cached ancestor the store holds (``None``: no cached input)."""
    for node in rdd.lineage():
        if node._cached:
            size = store.size_of((node.id, partition))
            if size is not None:
                return size
    return None


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

    def _runs_inline(self, rdd: RDD, parts: List[int]) -> bool:
        """Thread mode: does every task read a cached block no larger than
        :data:`INLINE_TASK_BYTES`?"""
        ctx = self._ctx
        if ctx.config.mode != "threads":
            return False
        store = ctx.block_store
        for p in parts:
            size = _cached_input_bytes(rdd, p, store)
            if size is None or size > INLINE_TASK_BYTES:
                return False
        return True

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
        executor = ctx.executor
        run = executor.run_inline if self._runs_inline(rdd, parts) else executor.submit
        by_partition = {res.partition: res.value for res in run(tasks)}
        out = [by_partition[p] for p in parts]
        if bus:
            bus.post(StageEnd(stage_id, "result", time.perf_counter() - t0, job_id))
        return out

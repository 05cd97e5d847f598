"""Task execution backends.

A :class:`Task` is a self-contained unit: stage/partition coordinates plus
a ``body(env)`` closure produced by the scheduler.  The three executors
trade isolation for overhead:

* :class:`SerialExecutor` — in-line loop; zero overhead, the baseline.
* :class:`ThreadExecutor` — thread pool sharing the driver heap.  NumPy
  kernels release the GIL, so SBGT's block operations scale with cores
  while partitions stay zero-copy.  This is the default mode.  Jobs
  whose tasks read only small cached blocks skip the pool and run on
  the submitting thread (:meth:`ThreadExecutor.run_inline`; the rule
  is the scheduler's).
* :class:`ProcessExecutor` — forked worker pool; tasks and results are
  pickled, each task carrying its own partition of driver-held source
  data.  Closest to Spark's separate executors (and to the
  serialization costs the repro notes warn about for PySpark).

Process-mode data plane
-----------------------
Tasks and results cross the fork boundary as protocol-5 pickles with
out-of-band buffers (:func:`repro.engine.closure.serialize_oob`), so
NumPy payloads — lattice masks and log-probs above all — travel as raw
buffers instead of in-band bytes.  Each forked worker keeps a
process-resident :class:`BlockStore` serving ``cache()``-ed partitions
across jobs; entries are validated against the cache generation the
task's pickled RDDs carry, and per-task cache events are relayed back to
the driver bus inside the :class:`TaskResult`.

Retries happen at the driver: a task raising is resubmitted up to
``max_task_retries`` times before :class:`TaskFailedError` aborts the job.
"""

from __future__ import annotations

import concurrent.futures as cf
import contextvars
import gc
import multiprocessing
import os
import threading
import time

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.engine import closure as closure_mod
from repro.engine.blockstore import BlockStore
from repro.engine.errors import EngineError, JobFailedError, TaskFailedError
from repro.engine.listener import (
    CacheEvict,
    CacheHit,
    CacheMiss,
    EventBus,
    TaskEnd,
    TaskRetry,
    TaskStart,
)
from repro.engine.lockorder import OrderedLock

__all__ = [
    "Task",
    "TaskEnv",
    "TaskResult",
    "BaseExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
]


class TaskEnv:
    """What a running task can reach: the block cache and its source data."""

    __slots__ = ("blockstore", "source")

    def __init__(self, blockstore: Optional[BlockStore], source: Optional[list] = None) -> None:
        self.blockstore = blockstore
        self.source = source

    def source_records(self, rdd_id: int, split: int) -> list:
        """Driver-held source partition shipped with the task."""
        if self.source is None:
            raise EngineError(
                f"task payload is missing source partition rdd={rdd_id} split={split}"
            )
        return self.source


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (``ru_maxrss`` unit on Linux); 0 if unknown."""
    if resource is None:
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _gc_collections() -> int:
    """Total GC collection passes across all generations so far."""
    return sum(s["collections"] for s in gc.get_stats())


@dataclass
class Task:
    """One partition's worth of work for one stage."""

    stage_id: int
    partition: int
    body: Callable[[TaskEnv], Any]
    # Process mode only: this partition's records of the lineage's source
    # RDD, whose data stays at the driver (its pickle ships without it).
    source_payload: Optional[list] = None
    # Process mode only: capacity for the lazily-created worker store.
    worker_cache_bytes: int = 0
    # Sampling-profiler rate stamped by the scheduler when a sampler is
    # installed (process mode relays worker samples via the TaskResult;
    # serial/thread tasks are visible to the driver sampler directly).
    profile_hz: float = 0.0

    def run(self, env: TaskEnv) -> "TaskResult":
        # Epoch stamp taken *in the worker*: perf_counter origins differ
        # per process, so the wall clock is the only cross-process
        # ordering exporters can trust.
        t0_wall = time.time()
        worker = f"{os.getpid()}/{threading.current_thread().name}"
        # thread_time is the per-thread CPU clock: in thread mode it
        # attributes CPU to *this* task even while siblings run, which a
        # process-wide getrusage CPU reading cannot.
        t0_cpu = time.thread_time()
        rss0 = _peak_rss_kb()
        gc0 = _gc_collections()
        t0 = time.perf_counter()
        value = self.body(env)
        wall = time.perf_counter() - t0
        result = TaskResult(self.partition, value, wall, t0_wall=t0_wall, worker=worker)
        result.cpu_s = max(0.0, time.thread_time() - t0_cpu)
        result.rss_peak_kb = max(0, _peak_rss_kb() - rss0)
        result.gc_collections = max(0, _gc_collections() - gc0)
        return result


@dataclass
class TaskResult:
    partition: int
    value: Any
    wall_s: float = 0.0
    attempts: int = 1
    #: Wall-clock epoch at task start, stamped worker-side (0.0 = unknown).
    t0_wall: float = 0.0
    #: ``"<pid>/<thread-name>"`` of the executing worker.
    worker: str = ""
    #: Worker-store cache activity as compact ``(kind, rdd_id, partition,
    #: size)`` tuples; the driver replays them onto its bus (process mode
    #: has no live event channel from the workers).
    cache_events: List[tuple] = field(default_factory=list)
    #: Per-task CPU seconds on the executing thread's CPU clock.
    cpu_s: float = 0.0
    #: Growth of the executing process's peak RSS during the task, KiB.
    rss_peak_kb: int = 0
    #: GC collection passes that ran during the task.
    gc_collections: int = 0
    #: Collapsed-stack ``(stack, count)`` samples drained from a process
    #: worker's sampler; the driver folds them into the installed
    #: :class:`~repro.obs.sampler.Sampler` (same relay as cache_events).
    profile_samples: List[tuple] = field(default_factory=list)


class BaseExecutor:
    """Runs a batch of tasks, returning results ordered by task index."""

    def __init__(
        self, blockstore: BlockStore, max_retries: int, bus: Optional[EventBus] = None
    ) -> None:
        self._blockstore = blockstore
        self._max_retries = max_retries
        self._bus = bus

    def _run_with_retries(self, task: Task, env: TaskEnv) -> TaskResult:
        bus = self._bus
        last: Optional[BaseException] = None
        for attempt in range(1, self._max_retries + 2):
            if bus:
                bus.post(TaskStart(task.stage_id, task.partition, attempt))
            try:
                result = task.run(env)
            except Exception as exc:  # noqa: BLE001 - task bodies are user code
                last = exc
                if bus:
                    bus.post(TaskRetry(task.stage_id, task.partition, attempt, repr(exc)))
                continue
            result.attempts = attempt
            if bus:
                bus.post(
                    TaskEnd(
                        task.stage_id,
                        task.partition,
                        result.wall_s,
                        attempt,
                        t0_wall=result.t0_wall,
                        worker=result.worker,
                        cpu_s=result.cpu_s,
                        rss_peak_kb=result.rss_peak_kb,
                        gc_collections=result.gc_collections,
                    )
                )
            return result
        raise TaskFailedError(task.stage_id, task.partition, self._max_retries + 1, last)

    def submit(self, tasks: List[Task]) -> List[TaskResult]:  # pragma: no cover - abstract
        raise NotImplementedError

    def stop(self) -> None:
        """Release pool resources (idempotent)."""


class SerialExecutor(BaseExecutor):
    """Run tasks one after another on the driver thread."""

    def submit(self, tasks: List[Task]) -> List[TaskResult]:
        env = TaskEnv(self._blockstore)
        return [self._run_with_retries(t, env) for t in tasks]


class ThreadExecutor(BaseExecutor):
    """Thread-pool execution sharing the driver address space."""

    def __init__(
        self,
        blockstore: BlockStore,
        max_retries: int,
        num_workers: int,
        bus: Optional[EventBus] = None,
    ) -> None:
        super().__init__(blockstore, max_retries, bus)
        self._pool = cf.ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="engine-worker"
        )

    def submit(self, tasks: List[Task]) -> List[TaskResult]:
        env = TaskEnv(self._blockstore)
        # Each task runs under a copy of the submitting thread's
        # contextvars, so trace/phase stamps survive the hop onto pool
        # threads (one cheap copy_context per task).
        futures = [
            self._pool.submit(
                contextvars.copy_context().run, self._run_with_retries, t, env
            )
            for t in tasks
        ]
        # Fail fast: the first task to exhaust its retries aborts the
        # wave — queued tasks are cancelled instead of draining behind
        # an in-order result scan.
        done, not_done = cf.wait(futures, return_when=cf.FIRST_EXCEPTION)
        failure = next((f for f in done if f.exception() is not None), None)
        if failure is not None:
            for f in not_done:
                f.cancel()
            raise failure.exception()
        return [f.result() for f in futures]

    def run_inline(self, tasks: List[Task]) -> List[TaskResult]:
        """Run *tasks* on the submitting thread, in order (the scheduler's
        small-job placement); each under a copy of the submitter's
        contextvars, as on the pool, and through the same retries."""
        env = TaskEnv(self._blockstore)
        return [contextvars.copy_context().run(self._run_with_retries, t, env) for t in tasks]

    def stop(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


#: Per-worker resident block store (fork mode keeps workers alive across
#: jobs, so cached partitions survive between actions).  Workers run one
#: task at a time, so unlocked module state is safe.
_WORKER_STORE: Optional[BlockStore] = None


def _worker_store(capacity_bytes: int) -> BlockStore:
    global _WORKER_STORE
    if _WORKER_STORE is None:
        _WORKER_STORE = BlockStore(capacity_bytes or (256 << 20))
    return _WORKER_STORE


class _CacheEventTap:
    """Bus stand-in installed on the worker store for one task.

    Collapses cache events into compact tuples the :class:`TaskResult`
    carries back; the driver replays them as real events (workers have
    no channel to the driver bus).  Truthy so the store's ``if bus:``
    guards fire.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[tuple] = []

    def __bool__(self) -> bool:
        return True

    def post(self, event: Any) -> None:
        if isinstance(event, CacheHit):
            self.events.append(("hit", event.rdd_id, event.partition, 0))
        elif isinstance(event, CacheMiss):
            self.events.append(("miss", event.rdd_id, event.partition, 0))
        elif isinstance(event, CacheEvict):
            self.events.append(("evict", event.rdd_id, event.partition, event.size_bytes))


def _replay_cache_events(bus: EventBus, events: List[tuple]) -> None:
    """Re-post worker cache activity on the driver bus, trace-stamped."""
    for kind, rdd_id, partition, size in events:
        if kind == "hit":
            bus.post(CacheHit(rdd_id, partition))
        elif kind == "miss":
            bus.post(CacheMiss(rdd_id, partition))
        else:
            bus.post(CacheEvict(rdd_id, partition, size))


#: Whether this worker currently runs a sampler (so a profile_hz of 0
#: still stops and drains it exactly once, without importing repro.obs
#: on the never-profiled fast path).
_WORKER_PROFILING = False


def _process_worker_run(task_bytes: bytes, task_buffers: List[bytearray]) -> Tuple[bytes, List[bytearray]]:
    """Worker-side entry: rebuild the task, run against a payload env."""
    global _WORKER_PROFILING
    task: Task = closure_mod.deserialize_oob(task_bytes, task_buffers)
    store = _worker_store(task.worker_cache_bytes)
    tap = _CacheEventTap()
    store._bus = tap
    env = TaskEnv(store, task.source_payload)
    try:
        result = task.run(env)
    finally:
        store._bus = None
    result.cache_events = tap.events
    if task.profile_hz > 0 or _WORKER_PROFILING:
        from repro.obs.sampler import worker_sync  # lazy: obs sits above engine

        result.profile_samples = worker_sync(task.profile_hz)
        _WORKER_PROFILING = task.profile_hz > 0
    return closure_mod.serialize_oob(result)


def _process_worker_warmup() -> int:
    return os.getpid()


class ProcessExecutor(BaseExecutor):
    """Forked worker pool; tasks ship as closure-pickled bytes."""

    def __init__(
        self,
        blockstore: BlockStore,
        max_retries: int,
        num_workers: int,
        bus: Optional[EventBus] = None,
    ) -> None:
        super().__init__(blockstore, max_retries, bus)
        ctx = multiprocessing.get_context("fork")
        self._pool = cf.ProcessPoolExecutor(max_workers=num_workers, mp_context=ctx)
        self._lock = OrderedLock("ProcessExecutor._lock")
        # Fork the whole worker pool NOW rather than at the first job.
        # With the fork start method CPython launches every worker on
        # the first submit and never forks again, so forcing that
        # submit here pins all forking to Context creation.  Otherwise
        # the fork happens mid-job — under the asyncio server that
        # means workers inherit duplicates of whatever fds are live at
        # the time (client sockets above all), and a connection the
        # driver closes never reaches EOF while the long-lived workers
        # hold their copies.
        self._pool.submit(_process_worker_warmup).result()

    @staticmethod
    def _require_complete(
        results: List[Optional[TaskResult]], tasks: List[Task]
    ) -> List[TaskResult]:
        """Every submitted task must have produced a result.

        A worker future that vanishes without raising (pool torn down,
        future lost) must abort the job loudly — silently dropping a
        partition would corrupt every downstream aggregate.
        """
        missing = [tasks[i].partition for i, r in enumerate(results) if r is None]
        if missing:
            raise JobFailedError(
                f"worker pool lost result(s) for partition(s) {missing} "
                f"of stage {tasks[0].stage_id}"
            )
        return results  # type: ignore[return-value]

    def submit(self, tasks: List[Task]) -> List[TaskResult]:
        bus = self._bus
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        pending = {i: 0 for i in range(len(tasks))}  # task index -> attempts
        payloads = [closure_mod.serialize_oob(t) for t in tasks]
        # One job wave at a time through this pool: the lock is a pool
        # admission gate held for the wave's whole lifetime by design, so
        # waiting on futures and posting progress events under it is the
        # point, not an accident.  No listener acquires this lock.
        with self._lock:  # repro: lint-ignore[E202]
            futures = {
                self._pool.submit(_process_worker_run, *payloads[i]): i for i in pending
            }
            if bus:
                for i in pending:
                    bus.post(TaskStart(tasks[i].stage_id, tasks[i].partition, 1))
            while futures:
                done, _ = cf.wait(futures, return_when=cf.FIRST_COMPLETED)
                for fut in done:
                    i = futures.pop(fut)
                    try:
                        res: TaskResult = closure_mod.deserialize_oob(*fut.result())
                        res.attempts = pending[i] + 1
                        results[i] = res
                        if res.profile_samples:
                            from repro.obs.sampler import merge_into_installed

                            merge_into_installed(res.profile_samples)
                        if bus:
                            bus.post(
                                TaskEnd(
                                    tasks[i].stage_id,
                                    tasks[i].partition,
                                    res.wall_s,
                                    res.attempts,
                                    t0_wall=res.t0_wall,
                                    worker=res.worker,
                                    cpu_s=res.cpu_s,
                                    rss_peak_kb=res.rss_peak_kb,
                                    gc_collections=res.gc_collections,
                                )
                            )
                            _replay_cache_events(bus, res.cache_events)
                    except Exception as exc:  # noqa: BLE001
                        pending[i] += 1
                        if bus:
                            bus.post(
                                TaskRetry(
                                    tasks[i].stage_id,
                                    tasks[i].partition,
                                    pending[i],
                                    repr(exc),
                                )
                            )
                        if pending[i] > self._max_retries:
                            for other in futures:
                                other.cancel()
                            raise TaskFailedError(
                                tasks[i].stage_id, tasks[i].partition, pending[i], exc
                            ) from exc
                        futures[self._pool.submit(_process_worker_run, *payloads[i])] = i
                        if bus:
                            bus.post(
                                TaskStart(
                                    tasks[i].stage_id, tasks[i].partition, pending[i] + 1
                                )
                            )
        return self._require_complete(results, tasks)

    def stop(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


def make_executor(
    mode: str,
    blockstore: BlockStore,
    max_retries: int,
    num_workers: int,
    bus: Optional[EventBus] = None,
) -> BaseExecutor:
    """Factory keyed on :attr:`EngineConfig.mode`."""
    if mode == "serial":
        return SerialExecutor(blockstore, max_retries, bus)
    if mode == "threads":
        return ThreadExecutor(blockstore, max_retries, num_workers, bus)
    if mode == "processes":
        return ProcessExecutor(blockstore, max_retries, num_workers, bus)
    raise ValueError(f"unknown executor mode {mode!r}")

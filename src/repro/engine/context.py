"""The engine entry point: :class:`Context` (the ``SparkContext`` analogue).

A context owns the executor pool, block store, event bus and metrics
hub.  RDDs are created through it and every action funnels through
:meth:`run_job`.

>>> from repro.engine import Context
>>> with Context(mode="serial") as ctx:
...     ctx.parallelize(range(10), 4).map(lambda x: x * x).sum()
285
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.engine import lockorder
from repro.engine.blockstore import BlockStore
from repro.engine.broadcast import Broadcast
from repro.engine.config import EngineConfig
from repro.engine.errors import ContextStoppedError
from repro.engine.executor import BaseExecutor, make_executor
from repro.engine.listener import EngineListener, EventBus, LockOrderViolation
from repro.engine.rdd import RDD, ParallelCollectionRDD, RangeRDD
from repro.engine.scheduler import Scheduler

T = TypeVar("T")

__all__ = ["Context"]


class Context:
    """Driver-side handle to the dataflow engine.

    Parameters
    ----------
    mode, parallelism, max_task_retries:
        Shorthand for the corresponding :class:`EngineConfig` fields.
    config:
        A full config object; overrides the shorthand arguments.
    """

    def __init__(
        self,
        mode: str = "threads",
        parallelism: int = 0,
        max_task_retries: int = 2,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.config = config or EngineConfig(
            mode=mode,
            parallelism=parallelism,
            max_task_retries=max_task_retries,
        )
        if self.config.lock_sanitizer:
            lockorder.set_sanitizer_mode(self.config.lock_sanitizer)
        self.event_bus = EventBus(enabled=self.config.enable_events)
        # Telemetry is two always-on bus listeners (imported lazily —
        # repro.obs sits above the engine): the flight recorder, a
        # bounded black box so failures and /debug endpoints have
        # history to show, and the fold of the event stream into this
        # context's labelled-metrics hub, which sinks (serve /metrics,
        # Prometheus exposition, CLI) snapshot.  With events disabled
        # neither exists and a job pays for no telemetry at all.
        from repro.obs.metrics import HubMetricsListener, MetricsHub

        self.metrics_hub = MetricsHub()
        self.flight_recorder = None
        if self.config.enable_events:
            if self.config.flight_recorder:
                from repro.obs.flight import FlightRecorder

                self.flight_recorder = FlightRecorder(
                    capacity=self.config.flight_capacity,
                    slow_threshold_s=self.config.slow_threshold_s,
                )
                self.event_bus.register(self.flight_recorder)
            self.event_bus.register(HubMetricsListener(self.metrics_hub))
        self.block_store = BlockStore(self.config.cache_capacity_bytes, bus=self.event_bus)
        self._scheduler = Scheduler(self)
        self._rdd_ids = itertools.count()
        self._lock = lockorder.OrderedLock("Context._lock")
        self._executor: Optional[BaseExecutor] = None
        self._stopped = False
        # Surface sanitizer violations (record mode) on this context's
        # bus and hub so they are observable like any other engine fact.
        self._lock_violations_counter = self.metrics_hub.counter(
            "repro_lock_order_violations_total",
            "Out-of-order lock acquisitions observed by the runtime sanitizer",
        )
        self._lockorder_hook = lockorder.add_violation_hook(self._on_lock_violation)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def executor(self) -> BaseExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = make_executor(
                    self.config.mode,
                    self.block_store,
                    self.config.max_task_retries,
                    self.config.effective_parallelism,
                    bus=self.event_bus,
                )
            return self._executor

    def ensure_running(self) -> None:
        if self._stopped:
            raise ContextStoppedError("context has been stopped")

    def stop(self) -> None:
        """Shut down the executor pool and drop all engine state."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            executor, self._executor = self._executor, None
        # Joining pool workers can take arbitrarily long; do it after
        # releasing the context lock (E205: a blocked `executor`
        # property access must not pile up behind the shutdown).
        if executor is not None:
            executor.stop()
        lockorder.remove_violation_hook(self._on_lock_violation)
        self.block_store.clear()

    def _on_lock_violation(self, record: "lockorder.ViolationRecord") -> None:
        """Sanitizer hook (record mode): post a bus event, bump the counter."""
        bus = self.event_bus
        if bus:
            bus.post(
                LockOrderViolation(
                    acquired=record.acquired,
                    acquired_level=record.acquired_level,
                    held=record.held,
                    held_level=record.held_level,
                    thread=record.thread,
                )
            )
        self._lock_violations_counter.inc()

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # dataset constructors
    # ------------------------------------------------------------------
    @property
    def default_parallelism(self) -> int:
        return self.config.effective_parallelism

    def parallelize(self, data: Iterable[T], num_partitions: Optional[int] = None) -> RDD[T]:
        """Distribute a driver-local collection."""
        self.ensure_running()
        n = num_partitions or self.default_parallelism
        return ParallelCollectionRDD(self, list(data), n)

    def range(
        self,
        start: int,
        stop: Optional[int] = None,
        step: int = 1,
        num_partitions: Optional[int] = None,
    ) -> RDD[int]:
        """Lazy integer range RDD (never materialized at the driver)."""
        self.ensure_running()
        if stop is None:
            start, stop = 0, start
        return RangeRDD(self, start, stop, step, num_partitions or self.default_parallelism)

    # ------------------------------------------------------------------
    # shared variables
    # ------------------------------------------------------------------
    def broadcast(self, value: Any) -> Broadcast:
        """Publish a read-only value to every task."""
        self.ensure_running()
        return Broadcast(value)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def add_listener(self, listener: EngineListener) -> EngineListener:
        """Subscribe *listener* to this context's event bus."""
        return self.event_bus.register(listener)

    def remove_listener(self, listener: EngineListener) -> None:
        """Unsubscribe *listener* from this context's event bus."""
        self.event_bus.unregister(listener)

    # ------------------------------------------------------------------
    # job submission
    # ------------------------------------------------------------------
    def run_job(
        self,
        rdd: RDD,
        func: Callable[[Iterable], Any],
        partitions: Optional[Sequence[int]] = None,
        description: str = "",
    ) -> List[Any]:
        """Run ``func`` over each requested partition; one result per split."""
        return self._scheduler.run_job(rdd, func, partitions, description)

    # internal: sequential RDD ids for cache keys and metrics
    def _next_rdd_id(self) -> int:
        return next(self._rdd_ids)

    # ------------------------------------------------------------------
    # pickling: tasks close over RDDs which reference the context.  On a
    # worker only `config` is ever consulted, so ship a stub that keeps
    # the config and raises if driver-only machinery is touched.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {"config": self.config}

    def __setstate__(self, state):
        self.config = state["config"]
        self.event_bus = EventBus(enabled=False)  # workers never post
        self.flight_recorder = None
        self.block_store = None
        self.metrics_hub = None
        self._scheduler = None
        self._rdd_ids = itertools.count()
        self._lock = lockorder.OrderedLock("Context._lock")
        self._executor = None
        self._stopped = True  # any action attempt on a worker fails fast

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "stopped" if self._stopped else "running"
        return f"Context(mode={self.config.mode!r}, parallelism={self.default_parallelism}, {state})"

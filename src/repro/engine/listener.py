"""The engine's listener bus (the ``SparkListener`` analogue).

Every observable engine transition — job/stage/task lifecycle, task
retries, cache hits/misses/evictions — is a dataclass posted to the
context's :class:`EventBus`.  Observers subclass :class:`EngineListener`
and override the hooks they care about;
:meth:`EngineListener.on_event` dispatches by event type.

Design constraints, in order:

1. **Zero cost when idle.**  Emission sites guard with ``if bus:`` —
   :class:`EventBus` is falsy when no listener is registered (or events
   are disabled by config), so event objects are never even constructed
   on the hot path of an unobserved context.
2. **Listeners cannot kill jobs.**  A listener raising inside a hook is
   recorded on the bus (``dropped_errors`` / ``last_error``) and
   swallowed; the job proceeds.
3. **Thread-safe posting.**  Thread-mode tasks emit concurrently; the
   bus serializes delivery, so a listener sees a consistent stream.

Every event additionally carries correlation metadata stamped at
construction from :mod:`repro.engine.tracing`: the originating
``trace_id``/``span_id`` (empty outside a trace scope) and the SBGT
``phase`` the emitting code was tagged with, plus a wall-clock epoch
view (:attr:`EngineEvent.wall`) that orders events across processes
where the raw ``perf_counter`` stamp cannot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Type

from repro.engine.lockorder import OrderedLock
from repro.engine.tracing import (
    EPOCH_OFFSET,
    TraceContext,
    _current_trace_for_event,
    current_phase,
)

__all__ = [
    "EngineEvent",
    "JobStart",
    "JobEnd",
    "StageStart",
    "StageEnd",
    "TaskStart",
    "TaskEnd",
    "TaskRetry",
    "CacheHit",
    "CacheMiss",
    "CacheEvict",
    "LockOrderViolation",
    "EngineListener",
    "EventBus",
    "RecordingListener",
    "register_event_type",
]


@dataclass
class EngineEvent:
    """Base of every bus event; ``time`` is a ``perf_counter`` stamp.

    ``trace`` and ``phase`` are stamped automatically from the active
    :func:`~repro.engine.tracing.trace_scope` / ``phase_scope`` when the
    event is constructed; both are empty for uncorrelated work.

    Events are plain (non-frozen) dataclasses on purpose: the always-on
    flight recorder makes event construction a hot path, and a frozen
    dataclass ``__init__`` costs ~4x (every field lands via
    ``object.__setattr__``).  Treat instances as immutable — they are
    shared by every listener on the bus.
    """

    time: float = field(default_factory=time.perf_counter, init=False, compare=False)
    trace: Optional[TraceContext] = field(
        default_factory=_current_trace_for_event, init=False, compare=False, repr=False
    )
    phase: str = field(default_factory=current_phase, init=False, compare=False)

    @property
    def kind(self) -> str:
        """Lower-snake event name (``job_start``, ``task_retry``, …)."""
        return _KIND_BY_TYPE[type(self)]

    @property
    def wall(self) -> float:
        """Wall-clock epoch seconds of the event (orders across processes)."""
        return self.time + EPOCH_OFFSET

    @property
    def trace_id(self) -> str:
        """Originating trace id ("" when emitted outside any scope)."""
        return self.trace.trace_id if self.trace is not None else ""

    @property
    def span_id(self) -> str:
        """Innermost span id at emission ("" outside any scope)."""
        return self.trace.span_id if self.trace is not None else ""

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form (used by trace exporters)."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "time": self.time,
            "wall": self.wall,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }
        for f in fields(self):
            if f.name not in ("time", "trace"):
                out[f.name] = getattr(self, f.name)
        return out


@dataclass
class JobStart(EngineEvent):
    """An action entered the scheduler."""

    job_id: int
    description: str = ""


@dataclass
class JobEnd(EngineEvent):
    """The scheduler finished (or abandoned) a job."""

    job_id: int
    wall_s: float
    succeeded: bool = True


@dataclass
class StageStart(EngineEvent):
    """A stage's task wave is about to be submitted."""

    stage_id: int
    stage_kind: str  # always "result": a job is one stage
    num_tasks: int
    job_id: int


@dataclass
class StageEnd(EngineEvent):
    """Every task of the stage has reported."""

    stage_id: int
    stage_kind: str
    wall_s: float
    job_id: int


@dataclass
class TaskStart(EngineEvent):
    """One attempt of one task is starting (attempt counts from 1)."""

    stage_id: int
    partition: int
    attempt: int = 1


@dataclass
class TaskEnd(EngineEvent):
    """A task attempt succeeded.

    ``t0_wall`` is the wall-clock epoch at which the attempt *started*,
    stamped inside the worker (thread or forked process), so exporters
    can place the task slice on the true timeline even though the event
    itself is posted from the driver.  ``worker`` identifies the
    executing worker as ``"<pid>/<thread-name>"``.

    ``cpu_s`` / ``rss_peak_kb`` / ``gc_collections`` are the task's
    resource telemetry, measured where the task ran (thread CPU clock,
    ``getrusage`` peak-RSS growth, GC passes) and relayed through the
    :class:`~repro.engine.executor.TaskResult` in process mode — the
    same channel the cache events ride.
    """

    stage_id: int
    partition: int
    wall_s: float
    attempts: int = 1
    t0_wall: float = 0.0
    worker: str = ""
    cpu_s: float = 0.0
    rss_peak_kb: int = 0
    gc_collections: int = 0


@dataclass
class TaskRetry(EngineEvent):
    """A task attempt failed (the driver may resubmit it)."""

    stage_id: int
    partition: int
    attempt: int
    error: str = ""


@dataclass
class CacheHit(EngineEvent):
    """A cached partition was served from the block store."""

    rdd_id: int
    partition: int


@dataclass
class CacheMiss(EngineEvent):
    """A cache()-ed partition had to be (re)computed."""

    rdd_id: int
    partition: int


@dataclass
class CacheEvict(EngineEvent):
    """LRU pressure dropped a cached partition."""

    rdd_id: int
    partition: int
    size_bytes: int = 0


@dataclass
class LockOrderViolation(EngineEvent):
    """The runtime lock sanitizer observed an out-of-order acquisition.

    Posted (in ``record`` mode) by the context's violation hook; the
    fields mirror :class:`repro.engine.lockorder.ViolationRecord`.
    """

    acquired: str
    acquired_level: int
    held: str
    held_level: int
    thread: str = ""


_KIND_BY_TYPE: Dict[Type[EngineEvent], str] = {
    JobStart: "job_start",
    JobEnd: "job_end",
    StageStart: "stage_start",
    StageEnd: "stage_end",
    TaskStart: "task_start",
    TaskEnd: "task_end",
    TaskRetry: "task_retry",
    CacheHit: "cache_hit",
    CacheMiss: "cache_miss",
    CacheEvict: "cache_evict",
    LockOrderViolation: "lock_order_violation",
}

_HANDLER_BY_TYPE: Dict[Type[EngineEvent], str] = {
    cls: f"on_{kind}" for cls, kind in _KIND_BY_TYPE.items()
}


def register_event_type(cls: Type[EngineEvent], kind: str) -> Type[EngineEvent]:
    """Register an :class:`EngineEvent` subclass defined outside this module.

    Upper layers (e.g. the serving front door) ride the same bus as the
    engine but post their own event vocabulary.  Registration gives the
    subclass a ``kind`` string and an ``on_<kind>`` dispatch slot, so
    listeners that define that hook receive it through the normal
    :meth:`EngineListener.on_event` path while listeners that don't
    stay untouched.  Registering the same class twice with the same
    kind is a no-op; re-using a kind for a different class is an error
    (it would make ``kind`` ambiguous in exported traces).
    """
    if not (isinstance(cls, type) and issubclass(cls, EngineEvent)):
        raise TypeError(f"{cls!r} is not an EngineEvent subclass")
    current = _KIND_BY_TYPE.get(cls)
    if current is not None:
        if current != kind:
            raise ValueError(f"{cls.__name__} already registered as {current!r}")
        return cls
    if kind in _KIND_BY_TYPE.values():
        raise ValueError(f"event kind {kind!r} already taken")
    _KIND_BY_TYPE[cls] = kind
    _HANDLER_BY_TYPE[cls] = f"on_{kind}"
    return cls


class EngineListener:
    """Override the hooks you care about; defaults are all no-ops.

    ``on_event`` receives *every* event and dispatches to the typed
    hooks — override it instead for a firehose view (recording,
    forwarding, tracing).
    """

    def on_event(self, event: EngineEvent) -> None:
        """Dispatch *event* to its typed ``on_<kind>`` hook.

        Events of registered extension types (see
        :func:`register_event_type`) dispatch the same way; a listener
        without the matching hook simply ignores them.
        """
        handler = _HANDLER_BY_TYPE.get(type(event))
        if handler is not None:
            hook = getattr(self, handler, None)
            if hook is not None:
                hook(event)

    def on_job_start(self, event: JobStart) -> None:
        """Hook: a job entered the scheduler."""

    def on_job_end(self, event: JobEnd) -> None:
        """Hook: a job finished or failed."""

    def on_stage_start(self, event: StageStart) -> None:
        """Hook: a stage wave is being submitted."""

    def on_stage_end(self, event: StageEnd) -> None:
        """Hook: a stage completed."""

    def on_task_start(self, event: TaskStart) -> None:
        """Hook: a task attempt is starting."""

    def on_task_end(self, event: TaskEnd) -> None:
        """Hook: a task attempt succeeded."""

    def on_task_retry(self, event: TaskRetry) -> None:
        """Hook: a task attempt failed."""

    def on_cache_hit(self, event: CacheHit) -> None:
        """Hook: block store hit."""

    def on_cache_miss(self, event: CacheMiss) -> None:
        """Hook: block store miss."""

    def on_cache_evict(self, event: CacheEvict) -> None:
        """Hook: block store eviction."""

    def on_lock_order_violation(self, event: LockOrderViolation) -> None:
        """Hook: the lock sanitizer recorded an out-of-order acquisition."""


class EventBus:
    """Fan-out of engine events to registered listeners.

    The bus is **falsy** while no listener is registered (or the
    context was configured with ``enable_events=False``); emitters use
    that to skip event construction entirely, which is what keeps the
    no-listener overhead unmeasurable.
    """

    __slots__ = ("_listeners", "_lock", "enabled", "dropped_errors", "last_error")

    def __init__(self, enabled: bool = True) -> None:
        self._listeners: List[EngineListener] = []
        # Reentrant: a listener may itself trigger an emitting code path
        # (e.g. a tracer reading a cached RDD) without deadlocking.
        self._lock = OrderedLock("EventBus._lock", reentrant=True)
        self.enabled = bool(enabled)
        #: Count of listener exceptions swallowed during delivery.
        self.dropped_errors = 0
        self.last_error: Optional[BaseException] = None

    def __bool__(self) -> bool:
        return self.enabled and bool(self._listeners)

    def __len__(self) -> int:
        return len(self._listeners)

    def register(self, listener: EngineListener) -> EngineListener:
        """Subscribe *listener*; returns it for chaining."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)
        return listener

    def unregister(self, listener: EngineListener) -> None:
        """Unsubscribe *listener* (no-op if absent)."""
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def clear(self) -> None:
        """Drop every listener."""
        with self._lock:
            self._listeners.clear()

    def post(self, event: EngineEvent) -> None:
        """Deliver *event* to every listener, serialized and fail-safe."""
        if not self:
            return
        with self._lock:
            for listener in self._listeners:
                try:
                    listener.on_event(event)
                except Exception as exc:  # noqa: BLE001 - listener bugs must not kill jobs
                    self.dropped_errors += 1
                    self.last_error = exc


class RecordingListener(EngineListener):
    """Append-only capture of the event stream (tests, debugging)."""

    def __init__(self) -> None:
        self._events: List[EngineEvent] = []
        self._lock = OrderedLock("RecordingListener._lock")

    def on_event(self, event: EngineEvent) -> None:
        """Record the event (thread-safe)."""
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> List[EngineEvent]:
        """Snapshot of everything recorded so far."""
        with self._lock:
            return list(self._events)

    def of_type(self, *types: Type[EngineEvent]) -> List[EngineEvent]:
        """Recorded events of the given type(s), in arrival order."""
        return [e for e in self.events if isinstance(e, types)]

    def kinds(self) -> List[str]:
        """The recorded stream as a list of kind strings."""
        return [e.kind for e in self.events]

    def clear(self) -> None:
        """Forget everything recorded."""
        with self._lock:
            self._events.clear()

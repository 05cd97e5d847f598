"""Phase-tagged tracing for SBGT workloads.

The engine's listener bus reports *engine* coordinates (jobs, stages,
tasks); a screen author thinks in *SBGT* coordinates — lattice
manipulation (R1), test selection (R2), statistical analysis (R3).  The
:class:`Tracer` bridges the two: instrumented SBGT call sites open
phase spans (via :func:`trace_phase`), and because the tracer is itself
an :class:`~repro.engine.listener.EngineListener`, every engine event
that fires while a span is open is attributed to that phase.

Span accounting uses **self time**: a span's ``self_s`` is its wall time
minus the wall time of its direct children, so nested instrumentation
(a selection step calling ``down_set_masses``, a session update re-reading
entropy) never double-counts.  Phase totals sum self times and therefore
partition the instrumented wall clock.

One tracer may be *installed* process-wide (``with tracer:`` or
:meth:`Tracer.install`); while none is installed :func:`trace_phase`
degrades to a bare :func:`~repro.engine.tracing.phase_scope` — no span
accounting, just the contextvar stamp that phase-attributes engine
events for the always-on flight recorder.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.engine.listener import EngineListener, JobStart, TaskEnd, TaskRetry
from repro.engine.lockorder import OrderedLock
from repro.engine.tracing import EPOCH_OFFSET, phase_scope, reset_phase, set_phase

__all__ = [
    "PHASE_LATTICE",
    "PHASE_SELECTION",
    "PHASE_ANALYSIS",
    "PHASES",
    "PhaseSpan",
    "StageTelemetry",
    "Tracer",
    "current_tracer",
    "trace_phase",
    "traced",
]

#: The three operation classes of the paper's runtime breakdown.
PHASE_LATTICE = "lattice-op"
PHASE_SELECTION = "selection"
PHASE_ANALYSIS = "analysis"
PHASES = (PHASE_LATTICE, PHASE_SELECTION, PHASE_ANALYSIS)


@dataclass
class PhaseSpan:
    """One closed instrumented region."""

    phase: str
    label: str
    t0: float
    wall_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0
    #: Wall-clock epoch of span entry (``t0`` mapped off perf_counter);
    #: 0.0 in records predating the field.  Lets exporters place spans
    #: on the same timeline as cross-process events.
    t0_wall: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "record": "span",
            "phase": self.phase,
            "label": self.label,
            "t0": self.t0,
            "wall_s": self.wall_s,
            "self_s": self.self_s,
            "depth": self.depth,
            "t0_wall": self.t0_wall,
        }


@dataclass
class StageTelemetry:
    """Per-screen-stage counters plus the phase breakdown of its wall."""

    stage: int
    pools_proposed: int = 0
    tests_run: int = 0
    entropy_drop: Optional[float] = None
    states_pruned: int = 0
    wall_s: float = 0.0
    phase_wall: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "record": "stage",
            "stage": self.stage,
            "pools_proposed": self.pools_proposed,
            "tests_run": self.tests_run,
            "entropy_drop": self.entropy_drop,
            "states_pruned": self.states_pruned,
            "wall_s": self.wall_s,
            "phase_wall": dict(self.phase_wall),
        }


class _Frame:
    __slots__ = ("phase", "label", "t0", "child_s", "depth")

    def __init__(self, phase: str, label: str, t0: float, depth: int) -> None:
        self.phase = phase
        self.label = label
        self.t0 = t0
        self.child_s = 0.0
        self.depth = depth


class Tracer(EngineListener):
    """Collects phase spans, per-stage telemetry and engine attribution."""

    def __init__(self, keep_spans: int = 100_000) -> None:
        self._lock = OrderedLock("Tracer._lock")
        self._tls = threading.local()  # driver-thread span stack
        self._keep_spans = keep_spans
        self.spans: List[PhaseSpan] = []
        self.stages: List[StageTelemetry] = []
        # Self-time, span count, engine jobs/tasks/retries per phase.
        self._phase_self: Dict[str, float] = {}
        self._phase_spans: Dict[str, int] = {}
        self._phase_jobs: Dict[str, int] = {}
        self._phase_tasks: Dict[str, int] = {}
        self._phase_retries: Dict[str, int] = {}
        # Event attribution reads the phase most recently entered on the
        # instrumenting (driver) thread; worker-thread events inherit it.
        self._current_phase: str = ""
        self._open_stage: Optional[StageTelemetry] = None
        self._stage_t0 = 0.0
        self._stage_phase_at_begin: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # span API
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def phase(self, phase: str, label: str = "") -> Iterator[None]:
        """Open an instrumented region attributed to *phase*."""
        stack = self._stack()
        frame = _Frame(phase, label, time.perf_counter(), len(stack))
        stack.append(frame)
        self._current_phase = phase
        # Mirror into the engine's phase contextvar so every bus event
        # emitted under this span is stamped with the phase (the var
        # follows thread-pool tasks via copy_context; the tls stack
        # above stays driver-thread-local for self-time accounting).
        token = set_phase(phase)
        try:
            yield
        finally:
            reset_phase(token)
            stack.pop()
            wall = time.perf_counter() - frame.t0
            self_s = max(0.0, wall - frame.child_s)
            if stack:
                stack[-1].child_s += wall
                self._current_phase = stack[-1].phase
            else:
                self._current_phase = ""
            span = PhaseSpan(
                phase,
                label,
                frame.t0,
                wall,
                self_s,
                frame.depth,
                t0_wall=frame.t0 + EPOCH_OFFSET,
            )
            with self._lock:
                if len(self.spans) < self._keep_spans:
                    self.spans.append(span)
                self._phase_self[phase] = self._phase_self.get(phase, 0.0) + self_s
                self._phase_spans[phase] = self._phase_spans.get(phase, 0) + 1

    # ------------------------------------------------------------------
    # per-screen-stage telemetry
    # ------------------------------------------------------------------
    def begin_screen_stage(self, stage: int) -> None:
        with self._lock:
            self._open_stage = StageTelemetry(stage=stage)
            self._stage_t0 = time.perf_counter()
            self._stage_phase_at_begin = dict(self._phase_self)

    def end_screen_stage(
        self,
        pools_proposed: int = 0,
        tests_run: int = 0,
        entropy_drop: Optional[float] = None,
        states_pruned: int = 0,
    ) -> Optional[StageTelemetry]:
        with self._lock:
            st = self._open_stage
            if st is None:
                return None
            st.pools_proposed = pools_proposed
            st.tests_run = tests_run
            st.entropy_drop = entropy_drop
            st.states_pruned = states_pruned
            st.wall_s = time.perf_counter() - self._stage_t0
            st.phase_wall = {
                phase: total - self._stage_phase_at_begin.get(phase, 0.0)
                for phase, total in self._phase_self.items()
                if total - self._stage_phase_at_begin.get(phase, 0.0) > 0.0
            }
            self.stages.append(st)
            self._open_stage = None
            return st

    # ------------------------------------------------------------------
    # EngineListener hooks: attribute engine activity to the live phase
    # ------------------------------------------------------------------
    def on_job_start(self, event: JobStart) -> None:
        phase = self._current_phase
        with self._lock:
            self._phase_jobs[phase] = self._phase_jobs.get(phase, 0) + 1

    def on_task_end(self, event: TaskEnd) -> None:
        phase = self._current_phase
        with self._lock:
            self._phase_tasks[phase] = self._phase_tasks.get(phase, 0) + 1

    def on_task_retry(self, event: TaskRetry) -> None:
        phase = self._current_phase
        with self._lock:
            self._phase_retries[phase] = self._phase_retries.get(phase, 0) + 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, ctx) -> "Tracer":
        """Subscribe to a context's event bus (engine attribution)."""
        ctx.add_listener(self)
        return self

    def detach(self, ctx) -> None:
        ctx.remove_listener(self)

    def install(self) -> "Tracer":
        """Make this the process-wide tracer :func:`trace_phase` targets."""
        global _active
        _active = self
        return self

    def uninstall(self) -> None:
        global _active
        if _active is self:
            _active = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-phase rollup: self-time wall, span/job/task/retry counts."""
        with self._lock:
            phases = set(self._phase_self) | set(self._phase_jobs) | set(self._phase_tasks)
            return {
                phase: {
                    "wall_s": self._phase_self.get(phase, 0.0),
                    "spans": float(self._phase_spans.get(phase, 0)),
                    "jobs": float(self._phase_jobs.get(phase, 0)),
                    "tasks": float(self._phase_tasks.get(phase, 0)),
                    "retries": float(self._phase_retries.get(phase, 0)),
                }
                for phase in sorted(phases)
            }

    def phase_wall(self, phase: str) -> float:
        """Total self-time attributed to one phase so far."""
        with self._lock:
            return self._phase_self.get(phase, 0.0)

    def summary(self) -> str:
        """Human-readable per-phase and per-stage rollup."""
        lines = ["phase        wall (s)   spans  jobs  tasks"]
        for phase, row in self.totals().items():
            name = phase or "(untagged)"
            lines.append(
                f"{name:<12} {row['wall_s']:>8.4f} {int(row['spans']):>7d}"
                f" {int(row['jobs']):>5d} {int(row['tasks']):>6d}"
            )
        if self.stages:
            lines.append("")
            lines.append("stage  pools  tests  dH        pruned  wall (s)")
            for st in self.stages:
                drop = f"{st.entropy_drop:.4f}" if st.entropy_drop is not None else "-"
                lines.append(
                    f"{st.stage:>5d} {st.pools_proposed:>6d} {st.tests_run:>6d}"
                    f" {drop:>9s} {st.states_pruned:>7d} {st.wall_s:>9.4f}"
                )
        return "\n".join(lines)

    def dump_jsonl(self, path: Union[str, os.PathLike]) -> int:
        """Write spans, stage telemetry and the summary as JSON lines."""
        with self._lock:
            spans = list(self.spans)
            stages = list(self.stages)
        totals = self.totals()
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
                n += 1
            for st in stages:
                fh.write(json.dumps(st.to_dict()) + "\n")
                n += 1
            fh.write(json.dumps({"record": "summary", "phases": totals}) + "\n")
        return n + 1

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.stages.clear()
            self._phase_self.clear()
            self._phase_spans.clear()
            self._phase_jobs.clear()
            self._phase_tasks.clear()
            self._phase_retries.clear()
            self._open_stage = None


# ----------------------------------------------------------------------
# module-level dispatch: instrumented call sites stay cheap when untraced
# ----------------------------------------------------------------------
_active: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The installed process-wide tracer, if any."""
    return _active


def trace_phase(phase: str, label: str = ""):
    """Span context manager against the installed tracer.

    Without an installed tracer this degrades to a bare
    :func:`~repro.engine.tracing.phase_scope` — no span accounting, but
    engine events emitted inside the region still carry the phase stamp
    (one contextvar set/reset, cheap enough for the always-on flight
    recorder to rely on).
    """
    tracer = _active
    if tracer is None:
        return phase_scope(phase)
    return tracer.phase(phase, label)


def traced(phase: str, label: str = "") -> Callable:
    """Decorator form of :func:`trace_phase` (label defaults to the name)."""

    def deco(fn: Callable) -> Callable:
        span_label = label or fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _active
            if tracer is None:
                token = set_phase(phase)
                try:
                    return fn(*args, **kwargs)
                finally:
                    reset_phase(token)
            with tracer.phase(phase, span_label):
                return fn(*args, **kwargs)

        return wrapper

    return deco

"""Trace-context propagation: correlate engine events with their origin.

A :class:`TraceContext` names one logical operation end-to-end — a serve
request, a CLI screen, a notebook cell — with a ``trace_id``, plus the
``span_id``/``parent_id`` pair that nests sub-operations (a screen stage
inside a request) under it.  The active context lives in a
:class:`contextvars.ContextVar`, so it follows ordinary call stacks and
``async`` tasks for free; thread-pool executors copy the context
explicitly per task (see :class:`~repro.engine.executor.ThreadExecutor`),
and process workers never post events, so every emission site sees the
right context without threading arguments through the engine.

Every :class:`~repro.engine.listener.EngineEvent` constructed while a
scope is open is stamped with the trace/span ids and the current SBGT
phase (see :func:`phase_scope`); unstamped events carry empty strings.
Stamping costs two ``ContextVar.get`` calls per event and nothing at all
while the bus is falsy, preserving the zero-cost-when-unobserved
invariant.

Cross-process timestamps: ``EngineEvent.time`` is ``perf_counter``,
whose origin is undefined per process.  :data:`EPOCH_OFFSET` is the
per-process ``time.time() - time.perf_counter()`` delta captured at
import, which converts monotonic stamps into wall-clock epoch seconds
(``EngineEvent.wall``) that *do* order across processes — exporters use
those.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "EPOCH_OFFSET",
    "TraceContext",
    "new_trace_id",
    "current_trace",
    "current_trace_id",
    "current_phase",
    "trace_scope",
    "ensure_trace",
    "phase_scope",
]

#: Per-process ``time.time() - time.perf_counter()``: add it to a
#: ``perf_counter`` stamp taken in *this* process to get epoch seconds.
EPOCH_OFFSET = time.time() - time.perf_counter()


@dataclass(frozen=True)
class TraceContext:
    """One node of the correlation tree.

    ``trace_id`` is shared by everything a root operation caused;
    ``span_id`` names this scope; ``parent_id`` is the enclosing scope's
    span (empty at the root).  ``name`` is a human label for debug
    output ("/screen", "screen-stage-3", …).
    """

    trace_id: str
    span_id: str
    parent_id: str = ""
    name: str = ""

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
        }


_trace_var: ContextVar[Optional[TraceContext]] = ContextVar("repro_trace", default=None)
_phase_var: ContextVar[str] = ContextVar("repro_phase", default="")


def new_trace_id() -> str:
    """A fresh 16-hex-char id (unique enough for one deployment)."""
    return uuid.uuid4().hex[:16]


def current_trace() -> Optional[TraceContext]:
    """The active :class:`TraceContext`, if any scope is open."""
    return _trace_var.get()


def current_trace_id() -> str:
    """The active trace id ("" when no scope is open)."""
    tc = _trace_var.get()
    return tc.trace_id if tc is not None else ""


def current_phase() -> str:
    """The SBGT phase of the innermost open :func:`phase_scope` ("")."""
    return _phase_var.get()


@contextmanager
def trace_scope(
    trace_id: Optional[str] = None, name: str = "", parent_id: Optional[str] = None
) -> Iterator[TraceContext]:
    """Open a trace scope; events constructed inside are stamped with it.

    With no arguments this opens a *child* span of the current scope
    (same trace_id, fresh span_id) or a brand-new root trace when none
    is active.  Passing ``trace_id`` explicitly (e.g. from an
    ``X-Trace-Id`` request header) forces a root with that id.
    """
    enclosing = _trace_var.get()
    if trace_id is None:
        if enclosing is not None:
            trace_id = enclosing.trace_id
            if parent_id is None:
                parent_id = enclosing.span_id
        else:
            trace_id = new_trace_id()
    tc = TraceContext(trace_id, new_trace_id(), parent_id or "", name)
    token = _trace_var.set(tc)
    try:
        yield tc
    finally:
        _trace_var.reset(token)


@contextmanager
def ensure_trace(name: str = "") -> Iterator[TraceContext]:
    """Yield the active context, opening a root scope only if none exists.

    Lets batch entry points (``SBGTSession.run_screen``, the CLI) give
    their engine activity a queryable trace_id without re-rooting work
    that is already correlated (a serve request).
    """
    tc = _trace_var.get()
    if tc is not None:
        yield tc
        return
    with trace_scope(name=name) as fresh:
        yield fresh


class _PhaseScope:
    """Reusable, allocation-light context manager for phase stamping."""

    __slots__ = ("phase", "_token")

    def __init__(self, phase: str) -> None:
        self.phase = phase
        self._token = None

    def __enter__(self) -> None:
        self._token = _phase_var.set(self.phase)
        return None

    def __exit__(self, *exc) -> None:
        _phase_var.reset(self._token)
        return None


def phase_scope(phase: str) -> _PhaseScope:
    """Stamp events constructed inside with the given SBGT phase.

    This is the engine-level half of :func:`repro.obs.trace_phase`: it
    only sets the contextvar, no span accounting.  Instrumented call
    sites use it when no :class:`~repro.obs.Tracer` is installed so the
    always-on flight recorder still sees phase-attributed events.
    """
    return _PhaseScope(phase)


# Internal: default_factory hook for EngineEvent (single ContextVar read).
def _current_trace_for_event() -> Optional[TraceContext]:
    return _trace_var.get()


def set_phase(phase: str):
    """Low-level phase set returning the reset token (Tracer internals)."""
    return _phase_var.set(phase)


def reset_phase(token) -> None:
    """Undo :func:`set_phase`."""
    _phase_var.reset(token)

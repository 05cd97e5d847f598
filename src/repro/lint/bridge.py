"""Runtime bridge: map pickling failures back to lint's capture model.

When ``closure.serialize`` fails, the raw pickle error names a type
three frames deep and nothing else.  This module re-walks the payload
the way the pickler would — function closure cells (paired with
``co_freevars``), default arguments, containers, object ``__dict__`` —
and returns the *capture path* to the first offending value, tagged
with the lint rule that would have flagged it statically.

No engine imports here: the caller supplies the ``can_pickle`` probe so
``repro.engine.closure`` can depend on this module without a cycle.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Set, Tuple

__all__ = ["CaptureIssue", "find_unpicklable", "capture_report"]

#: Type names that identify driver-side machinery (rule C101): shipping
#: these is wrong even when pickling happens to succeed via a stub.
_DRIVER_TYPE_NAMES = frozenset({
    "Context", "RDD", "EventBus", "BlockStore", "Scheduler",
    "SerialExecutor", "ThreadExecutor", "ProcessExecutor",
    "FlightRecorder", "SBGTSession", "DistributedLattice",
})

#: Type-name fragments for classically unpicklable handles (rule C102).
_UNPICKLABLE_HINTS = (
    "lock", "rlock", "condition", "semaphore", "barrier",
    "socket", "queue", "thread", "popen", "generator",
    "bufferedreader", "bufferedwriter", "textiowrapper", "fileio",
    "connection", "event",
)


@dataclass(frozen=True)
class CaptureIssue:
    """Where an un-shippable value sits inside a task payload."""

    #: Human-readable hops, outermost first, e.g.
    #: ``("function 'guarded' (demo.py:12)", "closure cell 'lock'")``.
    path: Tuple[str, ...]
    value_type: str
    #: Best-matching static rule id (C101 driver object, C102 unpicklable).
    rule: str

    def describe(self) -> str:
        hops = " -> ".join(self.path) if self.path else "payload"
        return f"{hops}: {self.value_type} [rule {self.rule}]"


def _classify(value: Any) -> Optional[str]:
    name = type(value).__name__
    if name in _DRIVER_TYPE_NAMES:
        return "C101"
    lowered = name.lower()
    if isinstance(value, types.GeneratorType) or any(
        h in lowered for h in _UNPICKLABLE_HINTS
    ):
        return "C102"
    return None


def _fn_site(fn: types.FunctionType) -> str:
    code = fn.__code__
    label = fn.__name__ if fn.__name__ != "<lambda>" else "lambda"
    return f"function {label!r} ({code.co_filename}:{code.co_firstlineno})"


def find_unpicklable(
    obj: Any,
    can_pickle: Callable[[Any], bool],
    *,
    max_depth: int = 8,
) -> Optional[CaptureIssue]:
    """Depth-first search for the first value that cannot ship.

    Returns the issue for the *deepest* unpicklable leaf reachable from
    ``obj``, or None when the failure cannot be localized (e.g. a C
    extension object rejecting pickle wholesale).
    """
    seen: Set[int] = set()

    def walk(value: Any, path: Tuple[str, ...], depth: int) -> Optional[CaptureIssue]:
        if id(value) in seen or depth > max_depth:
            return None
        seen.add(id(value))

        children: List[Tuple[str, Any]] = []
        if isinstance(value, types.FunctionType):
            site = _fn_site(value)
            code = value.__code__
            if value.__closure__:
                for name, cell in zip(code.co_freevars, value.__closure__):
                    try:
                        children.append((f"{site} -> closure cell {name!r}",
                                         cell.cell_contents))
                    except ValueError:  # empty cell
                        continue
            for i, default in enumerate(value.__defaults__ or ()):
                children.append((f"{site} -> default #{i}", default))
            for name, default in (value.__kwdefaults__ or {}).items():
                children.append((f"{site} -> default {name!r}", default))
        elif isinstance(value, (tuple, list, set, frozenset)):
            children = [(f"[{i}]", item) for i, item in enumerate(value)]
        elif isinstance(value, dict):
            for k, v in value.items():
                label = repr(k) if isinstance(k, (str, int, bytes)) else type(k).__name__
                children.append((f"[{label}]", v))
        else:
            attrs = getattr(value, "__dict__", None)
            if isinstance(attrs, dict):
                children = [(f".{k}", v) for k, v in attrs.items()]

        for label, child in children:
            hop = path + (label,)
            if isinstance(child, types.FunctionType):
                issue = walk(child, hop[:-1], depth + 1)
                if issue is not None:
                    return issue
                continue
            if not can_pickle(child):
                deeper = walk(child, hop, depth + 1)
                if deeper is not None:
                    return deeper
                return CaptureIssue(
                    path=hop,
                    value_type=type(child).__name__,
                    rule=_classify(child) or "C102",
                )
        return None

    issue = walk(obj, (), 0)
    if issue is not None:
        return issue
    # The object itself may be the offender with no traversable children.
    rule = _classify(obj)
    if rule is not None and not can_pickle(obj):
        return CaptureIssue(path=(), value_type=type(obj).__name__, rule=rule)
    return None


def capture_report(obj: Any, can_pickle: Callable[[Any], bool]) -> Optional[str]:
    """One-line diagnosis for a failed serialization, or None."""
    issue = find_unpicklable(obj, can_pickle)
    if issue is None:
        return None
    return (
        f"unpicklable capture: {issue.describe()} — "
        f"run `python -m repro lint` to catch this before runtime"
    )

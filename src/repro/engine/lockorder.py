"""Single source of truth for the engine lock hierarchy + runtime sanitizer.

The declared lock order used to live inside the linter
(:mod:`repro.lint.concurrency_rules`); it now lives here so that *both*
consumers read the same table:

* the static analyzer (E201/E202 and the interprocedural E204/E205)
  imports :data:`LOCK_LEVELS` / :data:`MODULE_LOCK_LEVELS` from this
  module, and
* the runtime sanitizer — :class:`OrderedLock` — enforces the same
  order on live threads.

**The hierarchy.**  Outer locks have *low* levels and are acquired
first; a thread may only acquire a lock whose level is strictly greater
than every lock it already holds.  Same-level locks must never nest
(two leaf locks at level 90 are fine *sequentially*, never stacked).
Levels at or below :data:`DATA_PLANE_MAX_LEVEL` sit on every task's hot
path: blocking while holding one stalls the whole data plane.

**The sanitizer.**  ``OrderedLock("BlockStore._lock")`` wraps a real
``threading.Lock`` (or ``RLock`` with ``reentrant=True``) and keeps a
per-thread stack of held locks.  Three modes, selectable via
:func:`set_sanitizer_mode`, ``EngineConfig.lock_sanitizer`` or the
``REPRO_LOCK_SANITIZER`` environment variable:

``off``
    (default) pure delegation — one attribute read and a falsy check on
    the hot path, nothing else.
``record``
    out-of-order acquisitions append a :class:`ViolationRecord` to a
    bounded global log (:func:`violations`) and fire registered hooks
    (the Context posts a bus event and bumps a MetricsHub counter);
    execution continues.
``raise``
    the acquiring thread raises :class:`LockOrderError` *before*
    acquiring — the mode CI runs the engine+serve suites under.

The module is deliberately stdlib-only and imports nothing from
``repro``: the linter must be able to import the table without pulling
in numpy, and the engine's lowest layers must be able to import the
wrapper without cycles.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "LOCK_LEVELS",
    "MODULE_LOCK_LEVELS",
    "DATA_PLANE_MAX_LEVEL",
    "ADMISSION_GATE_LOCKS",
    "OrderedLock",
    "LockOrderError",
    "UndeclaredLockError",
    "ViolationRecord",
    "lock_level",
    "sanitizer_mode",
    "set_sanitizer_mode",
    "violations",
    "clear_violations",
    "add_violation_hook",
    "remove_violation_hook",
    "held_locks",
]

#: Declared lock order, outer (low level) -> inner (high level), keyed by
#: ``(class name, attribute)``.  Same-level locks must never nest.
LOCK_LEVELS: Dict[Tuple[str, str], int] = {
    ("ReproServer", "_engine_lock"): 10,
    ("Context", "_lock"): 20,
    ("ProcessExecutor", "_lock"): 30,
    ("BlockStore", "_lock"): 50,
    ("EventBus", "_lock"): 80,
    # The hub's instruments are incremented from bus listeners (i.e.
    # under EventBus._lock), so the hub sits between the bus and leaves.
    ("MetricsHub", "_lock"): 85,
    # Leaf locks: never held across engine calls.
    ("RecordingListener", "_lock"): 90,
    ("ResultCache", "_lock"): 90,
    ("SessionRegistry", "_lock"): 90,
    ("Tracer", "_lock"): 90,
    ("Sampler", "_lock"): 90,
}

#: Module-level lock names (the broadcast id counter is a leaf).
MODULE_LOCK_LEVELS: Dict[str, int] = {
    "_ids_lock": 90,
}

#: Held-lock levels at or below this sit on the data plane: blocking
#: while holding one is E202/E205 territory.
DATA_PLANE_MAX_LEVEL = 50

#: Admission gates: locks whose *purpose* is to serialize a whole
#: operation (one request through the engine, one task wave through the
#: pool), so blocking while holding them is the design, not a hazard.
#: The interprocedural E205 skips these; the per-function E202 still
#: fires at direct blocking sites so each one carries an explicit,
#: justified suppression.
ADMISSION_GATE_LOCKS = frozenset(
    {("ReproServer", "_engine_lock"), ("ProcessExecutor", "_lock")}
)

_VALID_MODES = ("off", "record", "raise")


class LockOrderError(RuntimeError):
    """Raised (in ``raise`` mode) on an out-of-order lock acquisition."""


class UndeclaredLockError(ValueError):
    """An :class:`OrderedLock` was named something the registry lacks."""


@dataclass(frozen=True)
class ViolationRecord:
    """One observed out-of-order acquisition."""

    acquired: str
    acquired_level: int
    held: str
    held_level: int
    thread: str

    def describe(self) -> str:
        return (
            f"thread {self.thread!r} acquired {self.acquired} "
            f"(level {self.acquired_level}) while holding {self.held} "
            f"(level {self.held_level}) — declared order is strictly descending"
        )


def lock_level(name: str) -> Optional[int]:
    """Level of ``"Class._attr"`` or a bare module-level lock name."""
    if "." in name:
        cls, _, attr = name.partition(".")
        return LOCK_LEVELS.get((cls, attr))
    return MODULE_LOCK_LEVELS.get(name)


# ----------------------------------------------------------------------
# sanitizer state
# ----------------------------------------------------------------------
def _env_mode() -> str:
    raw = os.environ.get("REPRO_LOCK_SANITIZER", "").strip().lower()
    return raw if raw in _VALID_MODES else "off"


_mode: str = _env_mode()
_active: bool = _mode != "off"
_tls = threading.local()
#: deque.append is atomic — no internal lock needed (which keeps the
#: sanitizer itself out of the hierarchy it polices).
_violations: Deque[ViolationRecord] = deque(maxlen=256)
_hooks: List[Callable[[ViolationRecord], None]] = []


def sanitizer_mode() -> str:
    """Current mode: ``"off"``, ``"record"`` or ``"raise"``."""
    return _mode


def set_sanitizer_mode(mode: str) -> str:
    """Switch the sanitizer; returns the previous mode."""
    global _mode, _active
    if mode not in _VALID_MODES:
        raise ValueError(f"lock sanitizer mode must be one of {_VALID_MODES}, got {mode!r}")
    previous = _mode
    _mode = mode
    _active = mode != "off"
    return previous


def violations() -> List[ViolationRecord]:
    """Snapshot of recorded violations (``record`` mode), oldest first."""
    return list(_violations)


def clear_violations() -> None:
    """Drop every recorded violation."""
    _violations.clear()


def add_violation_hook(hook: Callable[[ViolationRecord], None]) -> Callable:
    """Call *hook* on each recorded violation (``record`` mode only).

    Hooks run on the violating thread with order checks suspended, so a
    hook may safely acquire OrderedLocks (e.g. to post a bus event)
    without cascading secondary violations.  Returns *hook* for
    symmetric :func:`remove_violation_hook` use.
    """
    if hook not in _hooks:
        _hooks.append(hook)
    return hook


def remove_violation_hook(hook: Callable[[ViolationRecord], None]) -> None:
    """Unregister *hook* (no-op if absent)."""
    try:
        _hooks.remove(hook)
    except ValueError:
        pass


def held_locks() -> Tuple[Tuple[str, int], ...]:
    """(name, level) of locks the calling thread currently holds."""
    held = getattr(_tls, "held", None)
    return tuple((lock.name, lock.level) for lock in held) if held else ()


def _reset_after_fork() -> None:
    # A forked child inherits whatever held-stack the forking thread had
    # (e.g. Context._lock held while the pool pre-forks); none of those
    # locks are meaningfully "held" in the child.
    global _tls
    _tls = threading.local()
    _violations.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix everywhere we run
    os.register_at_fork(after_in_child=_reset_after_fork)


class OrderedLock:
    """A ``threading.Lock``/``RLock`` that knows its place in the hierarchy.

    The name must be declared in :data:`LOCK_LEVELS` (``"Class._attr"``)
    or :data:`MODULE_LOCK_LEVELS` (bare name) — constructing an
    undeclared one raises :class:`UndeclaredLockError`, which is what
    keeps the registry complete by construction.
    """

    __slots__ = ("name", "level", "reentrant", "_inner")

    def __init__(self, name: str, *, reentrant: bool = False) -> None:
        level = lock_level(name)
        if level is None:
            raise UndeclaredLockError(
                f"lock {name!r} has no declared level — register it in "
                "repro.engine.lockorder.LOCK_LEVELS (or MODULE_LOCK_LEVELS)"
            )
        self.name = name
        self.level = level
        self.reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()

    # -- order checking ------------------------------------------------
    def _check(self, held: List["OrderedLock"]) -> None:
        if getattr(_tls, "in_hook", False):
            return
        for other in held:
            if other is self:
                if self.reentrant:
                    continue  # re-acquire of an RLock is fine
            if other.level >= self.level:
                record = ViolationRecord(
                    acquired=self.name,
                    acquired_level=self.level,
                    held=other.name,
                    held_level=other.level,
                    thread=threading.current_thread().name,
                )
                if _mode == "raise":
                    raise LockOrderError(record.describe())
                _violations.append(record)
                _tls.in_hook = True
                try:
                    for hook in list(_hooks):
                        try:
                            hook(record)
                        except Exception:  # noqa: BLE001 - hooks must not kill callers
                            pass
                finally:
                    _tls.in_hook = False
                return  # one record per acquisition is enough

    # -- lock protocol -------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not _active:
            return self._inner.acquire(blocking, timeout)
        held = getattr(_tls, "held", None)
        if held is None:
            held = _tls.held = []
        elif held:
            self._check(held)
        got = self._inner.acquire(blocking, timeout)
        if got:
            held.append(self)
        return got

    def release(self) -> None:
        if _active:
            held = getattr(_tls, "held", None)
            if held:
                # LIFO release is the overwhelmingly common case.
                if held[-1] is self:
                    held.pop()
                else:
                    for i in range(len(held) - 1, -1, -1):
                        if held[i] is self:
                            del held[i]
                            break
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        """Whether the underlying lock is currently held (non-reentrant only)."""
        inner_locked = getattr(self._inner, "locked", None)
        return bool(inner_locked()) if inner_locked is not None else False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "RLock" if self.reentrant else "Lock"
        return f"OrderedLock({self.name!r}, level={self.level}, {kind})"

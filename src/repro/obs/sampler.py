"""Wall-clock sampling profiler: where is the screen actually spending time?

A background thread wakes ``hz`` times a second, grabs
``sys._current_frames()``, and folds every thread's stack into a
collapsed-stack counter (``"file:func;file:func;..." -> samples``, root
first) — the format ``flamegraph.pl`` and speedscope ingest, and the
input of :func:`repro.obs.flamegraph.flamegraph_html`.  Sampling costs
one frame walk per thread per tick, so at the default 100 Hz the
overhead on the reference screen stays under the CI-asserted 3% bound
(see ``benchmarks/bench_engine_micro.py``).

Driver vs. workers
------------------
``sys._current_frames()`` only sees the calling process.  Serial and
thread executors therefore profile for free under the driver's
installed sampler; pre-forked process workers cannot inherit a thread
started after the fork.  They ride the same channel as PR 4's cache
events instead: the scheduler stamps the installed sampler's rate into
each :class:`~repro.engine.executor.Task` (``profile_hz``), the worker
keeps a module-local sampler matched to that rate via
:func:`worker_sync` and drains its folded counts into the
:class:`~repro.engine.executor.TaskResult`, and the driver merges them
into the installed sampler (:func:`merge_into_installed`).  Samples
taken after a worker's last profiled task are dropped with the pool —
an accepted loss for a statistical profiler.

Like the :class:`~repro.obs.tracer.Tracer`, a sampler becomes *the*
process profiler via :meth:`Sampler.install`; the registry is consulted
through :func:`current_profile_hz`.  The sampler is driver-resident
machinery — capturing it into a task closure is a C101 lint finding.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.engine.lockorder import OrderedLock

__all__ = [
    "Sampler",
    "current_profile_hz",
    "merge_into_installed",
    "worker_sync",
]

#: Stacks deeper than this keep their leaf-most frames (root replaced by
#: a marker) so one runaway recursion cannot bloat every sample.
MAX_FRAMES = 64


def _fold_frame(frame) -> str:
    code = frame.f_code
    filename = os.path.basename(code.co_filename)
    return f"{filename}:{code.co_name}"


def _fold_stack(frame) -> str:
    frames: List[str] = []
    while frame is not None and len(frames) < MAX_FRAMES + 1:
        frames.append(_fold_frame(frame))
        frame = frame.f_back
    frames.reverse()  # root first
    if len(frames) > MAX_FRAMES:
        frames = ["<truncated>"] + frames[-MAX_FRAMES:]
    return ";".join(frames)


class Sampler:
    """Low-overhead sampling profiler over ``sys._current_frames()``."""

    def __init__(self, hz: float = 100.0) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        self.hz = float(hz)
        self._interval = 1.0 / self.hz
        self._folded: Dict[str, int] = {}
        self._lock = OrderedLock("Sampler._lock")
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._ticks = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Sampler":
        """Launch the sampling thread (idempotent); returns self."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling; collected samples stay readable."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self._interval):
            self._sample_once(skip_ident=own)

    def _sample_once(self, skip_ident: Optional[int] = None) -> None:
        frames = sys._current_frames()
        with self._lock:
            self._ticks += 1
            for ident, frame in frames.items():
                if ident == skip_ident:
                    continue
                stack = _fold_stack(frame)
                self._folded[stack] = self._folded.get(stack, 0) + 1

    # ------------------------------------------------------------------
    # sample access
    # ------------------------------------------------------------------
    def folded(self) -> Dict[str, int]:
        """Copy of the collapsed-stack counts accumulated so far."""
        with self._lock:
            return dict(self._folded)

    def drain(self) -> List[Tuple[str, int]]:
        """Pop the accumulated counts (worker-side relay primitive)."""
        with self._lock:
            items = list(self._folded.items())
            self._folded.clear()
        return items

    def merge_folded(self, items: Iterable[Tuple[str, int]]) -> None:
        """Fold externally collected samples (e.g. from a worker) in."""
        with self._lock:
            for stack, count in items:
                self._folded[stack] = self._folded.get(stack, 0) + int(count)

    @property
    def sample_count(self) -> int:
        with self._lock:
            return sum(self._folded.values())

    def snapshot(self) -> Dict[str, Union[int, float, bool]]:
        with self._lock:
            return {
                "hz": self.hz,
                "running": self.running,
                "ticks": self._ticks,
                "samples": sum(self._folded.values()),
                "stacks": len(self._folded),
            }

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def dump_collapsed(self, path: Union[str, os.PathLike]) -> int:
        """Write ``stack count`` lines (flamegraph.pl/speedscope input)."""
        folded = self.folded()
        with open(path, "w", encoding="utf-8") as fh:
            for stack, count in sorted(folded.items()):
                fh.write(f"{stack} {count}\n")
        return len(folded)

    def flamegraph_html(self, title: str = "repro profile") -> str:
        from repro.obs.flamegraph import flamegraph_html

        return flamegraph_html(self.folded(), title=title)

    def dump_flamegraph(
        self, path: Union[str, os.PathLike], title: str = "repro profile"
    ) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.flamegraph_html(title=title))

    # ------------------------------------------------------------------
    # process-wide registry (the Tracer.install pattern)
    # ------------------------------------------------------------------
    def install(self) -> "Sampler":
        """Make this the process's sampler; returns self for chaining."""
        global _active
        _active = self
        return self

    def uninstall(self) -> None:
        global _active
        if _active is self:
            _active = None


_active: Optional[Sampler] = None


def current_profile_hz() -> float:
    """Sampling rate the scheduler should stamp into tasks (0 = off)."""
    sampler = _active
    return sampler.hz if sampler is not None and sampler.running else 0.0


def merge_into_installed(items: Iterable[Tuple[str, int]]) -> None:
    """Fold worker-drained samples into the installed sampler (if any)."""
    sampler = _active
    if sampler is not None:
        sampler.merge_folded(items)


# ---------------------------------------------------------------------------
# forked-worker side

_worker_sampler: Optional[Sampler] = None


def worker_sync(profile_hz: float) -> List[Tuple[str, int]]:
    """Match the worker's sampler to the driver's rate; drain samples.

    Called by the process-mode worker entry after every task: a positive
    ``profile_hz`` keeps a module-local sampler running at that rate
    (restarting on rate changes), zero stops it.  Either way the
    accumulated folded counts are drained and returned so they travel
    back inside the :class:`~repro.engine.executor.TaskResult`.
    """
    global _worker_sampler
    if profile_hz > 0:
        sampler = _worker_sampler
        if sampler is None or not sampler.running or sampler.hz != profile_hz:
            if sampler is not None:
                sampler.stop()
            sampler = _worker_sampler = Sampler(hz=profile_hz).start()
        return sampler.drain()
    sampler = _worker_sampler
    if sampler is not None:
        _worker_sampler = None
        sampler.stop()
        return sampler.drain()
    return []

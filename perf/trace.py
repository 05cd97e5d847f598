"""Benchmark-side tracing: spans around calls into the program's layers.

Nothing here runs inside the program.  Spans come from three places, all
of them outside ``src/repro``:

* ``with tracer.span(name)`` around a public call the benchmark makes;
* delegating proxies the benchmark owns (:class:`BackendProxy` around the
  session's ``PosteriorBackend``, :class:`CandidatesProxy` around the
  policy's candidate generator), which time each call the program makes
  through them;
* :class:`EngineSpans`, an ``EngineListener`` on the public event bus,
  which turns job / task / campaign events into spans from their stamps.

Spans stay in memory; :func:`write_chrome` dumps them when the run ends.
"""

from __future__ import annotations

import collections
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.engine.listener import EngineListener
from repro.engine.tracing import EPOCH_OFFSET


class Span:
    """name, start, end (``perf_counter`` seconds), parent index, op id, track."""

    __slots__ = ("name", "start", "end", "parent", "op", "tid")

    def __init__(self, name: str, start: float, end: float, parent: Optional[int],
                 op: int, tid: Any) -> None:
        self.name, self.start, self.end = name, start, end
        self.parent, self.op, self.tid = parent, op, tid

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span list with a stack for the driver thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = -1
        #: Counts the proxies take where the work happens, by name.
        self.samples: Dict[str, List[int]] = collections.defaultdict(list)

    def open(self, name: str, at: Optional[float] = None) -> int:
        """Start a span nested under the innermost open one."""
        parent = self.current()
        if parent is None:
            self.op += 1
        start = time.perf_counter() if at is None else at
        self.spans.append(Span(name, start, start, parent, self.op, 0))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, at: Optional[float] = None) -> None:
        self.spans[index].end = time.perf_counter() if at is None else at
        self._stack.remove(index)

    def current(self) -> Optional[int]:
        """Index of the innermost open span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, tid: Any = 0) -> None:
        """Record a finished span from its stamps (a task on a worker, a
        request on a client connection); without a parent it is an op."""
        if parent is None:
            self.op += 1
        op = self.op if parent is None else self.spans[parent].op
        self.spans.append(Span(name, start, end, parent, op, tid))

    def durations(self) -> Dict[str, List[float]]:
        """Span durations in seconds, by span name."""
        out: Dict[str, List[float]] = collections.defaultdict(list)
        for s in self.spans:
            out[s.name].append(s.dur)
        return out


# ----------------------------------------------------------------------
# proxies the benchmark owns
# ----------------------------------------------------------------------
class BackendProxy:
    """Delegates to a ``PosteriorBackend``, timing every call made through it."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner, self._tracer = inner, tracer

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name.startswith("_") or not callable(attr):
            return attr

        def timed(*args, **kwargs):
            with self._tracer.span(f"sbgt.backend.{name}"):
                return attr(*args, **kwargs)

        return timed

    def update(self, pool_mask, log_lik_by_count):
        inner = self._inner
        # The dense lattice only counts its states with an engine job, so
        # its size is computed; driver-resident backends are asked.
        dense = hasattr(inner, "rdd")
        self._tracer.samples["states"].append(
            1 << inner.n_items if dense else inner.num_states())
        with self._tracer.span("sbgt.backend.update"):
            return inner.update(pool_mask, log_lik_by_count)


class CandidatesProxy:
    """Delegates to a ``CandidateGenerator``, timing ``generate``."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner, self._tracer = inner, tracer

    def generate(self, marginals, eligible_mask):
        with self._tracer.span("halving.candidates"):
            out = self._inner.generate(marginals, eligible_mask)
        self._tracer.samples["candidates"].append(len(out))
        return out


class EngineSpans(EngineListener):
    """Spans and counts from the context's public event bus."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._job_span: Dict[int, int] = {}
        self._stage_job: Dict[int, int] = {}
        self._stage_max: Dict[int, float] = collections.defaultdict(float)
        self.job_walls: List[float] = []
        self.tasks = 0
        self.task_cpu_s = 0.0
        self.cache_hits = self.cache_misses = self.retries = 0
        self._round_start = self._fold_end = 0.0

    @property
    def critical_task_s(self) -> float:
        """Σ over stages of the slowest task: what the jobs had to wait for."""
        return sum(self._stage_max.values())

    def on_job_start(self, event) -> None:
        self._job_span[event.job_id] = self.tracer.open("engine.job", event.time)

    def on_job_end(self, event) -> None:
        self.tracer.close(self._job_span[event.job_id], event.time)
        self.job_walls.append(event.wall_s)
        self._fold_end = event.time

    def on_stage_start(self, event) -> None:
        self._stage_job[event.stage_id] = event.job_id

    def on_task_end(self, event) -> None:
        start = event.t0_wall - EPOCH_OFFSET
        parent = self._job_span.get(self._stage_job.get(event.stage_id))
        self.tracer.add("engine.task", start, start + event.wall_s, parent, event.worker)
        self.tasks += 1
        self.task_cpu_s += event.cpu_s
        self._stage_max[event.stage_id] = max(self._stage_max[event.stage_id], event.wall_s)

    def on_task_retry(self, event) -> None:
        self.retries += 1

    def on_cache_hit(self, event) -> None:
        self.cache_hits += 1

    def on_cache_miss(self, event) -> None:
        self.cache_misses += 1

    # campaign events (``repro.surveil.events``) share the bus
    def on_surveil_round_start(self, event) -> None:
        self._round_start = event.time

    def on_surveil_budget_allocated(self, event) -> None:
        self._child("surveil.allocate", self._round_start, event.time)

    def on_surveil_site_screened(self, event) -> None:
        self._child("surveil.fold", self._fold_end, event.time)
        self._fold_end = event.time

    def on_surveil_round_end(self, event) -> None:
        self._child("surveil.hyperprior", self._fold_end, event.time)

    def _child(self, name: str, start: float, end: float) -> None:
        self.tracer.add(name, start, end, self.tracer.current())


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> List[float]:
    """Exclusive seconds per span: its duration minus the part of that
    interval its children cover.

    Children that overlap each other (a stage's parallel tasks) share the
    interval they cover in proportion to their durations, so the self
    times of an op's spans still sum to the op's wall.
    """
    children: Dict[int, List[int]] = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = [0.0] * len(spans)
    todo = [(i, 1.0) for i, s in enumerate(spans) if s.parent is None]
    while todo:
        i, weight = todo.pop()
        s = spans[i]
        clipped = sorted(
            (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in children[i]
        )
        covered, edge = 0.0, s.start
        for lo, hi in clipped:
            if hi > max(lo, edge):
                covered += hi - max(lo, edge)
                edge = hi
        out[i] = weight * (s.dur - covered)
        total = sum(max(0.0, hi - lo) for lo, hi in clipped)
        for k in children[i]:
            todo.append((k, weight * covered / total if total else 0.0))
    return out


def self_time_table(spans: List[Span]) -> Dict[str, Any]:
    """Mean self milliseconds per op by span name, and the mean op wall."""
    ops = sum(1 for s in spans if s.parent is None) or 1
    rows: Dict[str, float] = collections.defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        rows[s.name] += own * 1e3 / ops
    wall = sum(s.dur for s in spans if s.parent is None) * 1e3 / ops
    return {"op_wall_ms": wall, "rows": dict(sorted(rows.items(), key=lambda kv: -kv[1]))}


def format_self_time(workload: str, table: Dict[str, Any]) -> str:
    wall = table["op_wall_ms"] or 1.0
    total = sum(table["rows"].values())
    lines = [f"self time per op, {workload} (op wall {wall:.3f} ms)"]
    for name, ms in table["rows"].items():
        lines.append(f"  {name:<34}{ms:>10.3f} ms{100 * ms / wall:>7.1f} %")
    lines.append(f"  {'sum of rows':<34}{total:>10.3f} ms{100 * total / wall:>7.1f} %")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def write_chrome(spans: List[Span], path: Path) -> None:
    """Write *spans* as Chrome trace-event JSON (``X`` events, µs)."""
    tids: Dict[Any, int] = {}
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name, "ph": "X", "pid": 1,
            "tid": tids.setdefault(s.tid, len(tids)),
            "ts": (s.start - origin) * 1e6, "dur": max(0.0, s.dur) * 1e6,
            "args": {"op": s.op,
                     "parent": spans[s.parent].name if s.parent is not None else ""},
        }
        for s in spans
    ]
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))

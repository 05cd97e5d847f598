"""The labelled metrics core: one vocabulary, one exposition path.

The event bus is the only telemetry source; :class:`MetricsHub` is the
one aggregate every vocabulary on it folds into — engine jobs, stages,
tasks, retries and cache traffic and surveil's campaign events through
:class:`HubMetricsListener`, which every context registers on its own
hub, and serve's request events through
:class:`~repro.serve.events.ServeMetricsListener`.  The hub offers
Counter / Gauge / Histogram instruments with label sets, exemplar
trace ids on histogram observations (stamped from the active
:func:`~repro.engine.tracing.trace_scope`), a JSON-ready
:meth:`MetricsHub.snapshot`, and a deterministic Prometheus text
exposition (:func:`render_prometheus`) whose output is byte-stable for
a fixed event history — sorted families, sorted series, no timestamps.

Naming conventions (enforced only by review, checked by
:func:`validate_prometheus_text` in CI):

* every metric is ``repro_<layer>_<what>[_<unit>]``;
* counters end in ``_total``;
* histograms carry their unit (``_seconds``, ``_ms``) and expose the
  standard ``_bucket``/``_sum``/``_count`` triplet.

The hub is driver-side machinery (like the :class:`EventBus` it feeds
from) — capture it into a task closure and ``repro lint`` flags C101.
Every :class:`~repro.engine.context.Context` owns its own hub so tests
and servers stay isolated.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.listener import (
    CacheEvict,
    CacheHit,
    CacheMiss,
    EngineListener,
    JobEnd,
    StageEnd,
    TaskEnd,
    TaskRetry,
)
from repro.engine.lockorder import OrderedLock
from repro.engine.tracing import current_trace_id

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsHub",
    "HubMetricsListener",
    "DEFAULT_BUCKETS",
    "bucket_quantile",
    "render_prometheus",
    "validate_prometheus_text",
]

#: Default histogram bucket upper bounds, seconds (log-spaced; the last
#: implicit bucket is +Inf).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def bucket_quantile(
    q: float,
    bounds: Sequence[float],
    counts: Sequence[int],
    total: int,
    max_value: float,
) -> float:
    """Interpolated q-quantile of a bucketed distribution.

    ``counts`` holds one entry per finite bucket plus a trailing
    overflow bucket.  Within the winning bucket the estimate is linear
    between the bucket's lower and upper bound (the Prometheus
    ``histogram_quantile`` convention), clamped to the observed
    ``max_value`` so a lone sample reports itself rather than its
    bucket ceiling.  Observations in the overflow bucket report
    ``max_value`` — there is no finite upper bound to interpolate to.
    """
    if total <= 0:
        return 0.0
    rank = q * total
    seen = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        seen += c
        if seen >= rank:
            if i >= len(bounds):
                return max_value
            lo = float(bounds[i - 1]) if i > 0 else 0.0
            hi = float(bounds[i])
            frac = (rank - (seen - c)) / c
            frac = min(1.0, max(0.0, frac))
            return min(lo + (hi - lo) * frac, max_value)
    return max_value


def _labels_key(
    labelnames: Tuple[str, ...], labelvalues: Dict[str, Any]
) -> Tuple[str, ...]:
    if set(labelvalues) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labelvalues)} do not match declared "
            f"labelnames {sorted(labelnames)}"
        )
    return tuple(str(labelvalues[name]) for name in labelnames)


class _Child:
    """One labelled series of an instrument family."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock


class Counter(_Child):
    """Monotonically increasing count (name it ``*_total``)."""

    __slots__ = ("_value",)

    def __init__(self, lock: threading.RLock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Child):
    """A value that can go anywhere (queue depth, RSS peak, ...)."""

    __slots__ = ("_value",)

    def __init__(self, lock: threading.RLock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def set(self, v: float) -> None:
        with self._lock:
            self._value = float(v)

    def set_max(self, v: float) -> None:
        """Ratchet: keep the largest value ever set (peak trackers)."""
        with self._lock:
            if v > self._value:
                self._value = float(v)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Child):
    """Bucketed distribution with sum/count/max and one exemplar.

    ``observe`` stamps the active trace id (when inside a
    :func:`~repro.engine.tracing.trace_scope`) as the exemplar of the
    observation, so a spike in a dashboard links back to the exact
    request/screen that caused it.  Exemplars ride the JSON snapshot
    only — the text exposition stays plain format 0.0.4.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "max", "exemplar")

    def __init__(self, lock: threading.RLock, bounds: Tuple[float, ...]) -> None:
        super().__init__(lock)
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.exemplar: Optional[Dict[str, Any]] = None

    def observe(self, v: float, trace_id: Optional[str] = None) -> None:
        v = float(v)
        if trace_id is None:
            trace_id = current_trace_id()
        with self._lock:
            i = 0
            for i, bound in enumerate(self.bounds):  # noqa: B007
                if v <= bound:
                    break
            else:
                i = len(self.bounds)
            self.counts[i] += 1
            self.count += 1
            self.sum += v
            if v > self.max:
                self.max = v
            if trace_id:
                self.exemplar = {"trace_id": trace_id, "value": v}

    def quantile(self, q: float) -> float:
        with self._lock:
            return bucket_quantile(q, self.bounds, self.counts, self.count, self.max)


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named instrument: shared metadata plus its labelled children."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_children", "_lock")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        lock: threading.RLock,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} for {name}")
        if kind == "histogram" and list(buckets) != sorted(set(buckets)):
            raise ValueError(f"histogram buckets must be strictly increasing: {buckets}")
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = tuple(float(b) for b in buckets)
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._lock = lock

    def labels(self, **labelvalues: Any) -> Any:
        """The child series for one label-value combination."""
        key = _labels_key(self.labelnames, labelvalues)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._lock, self.buckets)
                else:
                    child = _CHILD_TYPES[self.kind](self._lock)
                self._children[key] = child
            return child

    def series(self) -> Iterator[Tuple[Dict[str, str], _Child]]:
        """All (labels-dict, child) pairs, sorted by label values."""
        with self._lock:
            items = sorted(self._children.items())
        for key, child in items:
            yield dict(zip(self.labelnames, key)), child

    # Label-less convenience: a family declared without labelnames acts
    # as its own single series.
    def _solo(self) -> Any:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name} declares labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    def inc(self, n: float = 1.0) -> None:
        self._solo().inc(n)

    def dec(self, n: float = 1.0) -> None:
        self._solo().dec(n)

    def set(self, v: float) -> None:
        self._solo().set(v)

    def set_max(self, v: float) -> None:
        self._solo().set_max(v)

    def observe(self, v: float, trace_id: Optional[str] = None) -> None:
        self._solo().observe(v, trace_id=trace_id)

    @property
    def value(self) -> float:
        return self._solo().value


class MetricsHub:
    """The process's metric registry: declare once, observe anywhere.

    ``counter``/``gauge``/``histogram`` are get-or-create — declaring
    the same name twice returns the same family, declaring it with a
    different kind or label set raises (a name must mean one thing).
    One snapshot feeds every exposition: the serve JSON ``/metrics``
    document and the Prometheus text format render from the same data.
    """

    def __init__(self) -> None:
        # Reentrant and shared with every family/instrument the hub owns:
        # one hierarchy entry (level 85) covers the whole instrument tree.
        self._lock = OrderedLock("MetricsHub._lock", reentrant=True)
        self._families: Dict[str, _Family] = {}

    def _declare(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Sequence[str],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> _Family:
        labelnames = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already declared as {family.kind} "
                        f"with labels {family.labelnames}"
                    )
                return family
            family = _Family(name, kind, help_text, labelnames, self._lock, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> _Family:
        if not name.endswith("_total"):
            raise ValueError(f"counter names must end in _total: {name!r}")
        return self._declare(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> _Family:
        return self._declare(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> _Family:
        return self._declare(name, "histogram", help_text, labels, tuple(buckets))

    def get(self, name: str) -> Optional[_Family]:
        """The family registered under *name*, or None."""
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view of every family, sorted and exemplar-carrying."""
        out: Dict[str, Any] = {}
        for family in self.families():
            series = []
            for labels, child in family.series():
                if isinstance(child, Histogram):
                    series.append(
                        {
                            "labels": labels,
                            "buckets": list(child.bounds),
                            "counts": list(child.counts),
                            "sum": child.sum,
                            "count": child.count,
                            "max": child.max,
                            "exemplar": child.exemplar,
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": series,
            }
        return out

    def render_prometheus(self) -> str:
        return render_prometheus(self.snapshot())

    def clear(self) -> None:
        with self._lock:
            self._families.clear()


# ---------------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labelstr(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(k, labels[k]) for k in sorted(labels)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{_escape(str(v))}"' for k, v in pairs) + "}"


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`MetricsHub.snapshot` as Prometheus text.

    Deterministic by construction: families and series sort by name and
    label values, no timestamps are emitted, and exemplars stay in the
    JSON snapshot — the same metric history always renders to the same
    bytes, which the exposition tests pin.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        doc = snapshot[name]
        if doc["help"]:
            lines.append(f"# HELP {name} {_escape(doc['help'])}")
        lines.append(f"# TYPE {name} {doc['type']}")
        for series in doc["series"]:
            labels = series["labels"]
            if doc["type"] == "histogram":
                cumulative = 0
                for bound, count in zip(
                    series["buckets"], series["counts"][:-1]
                ):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_labelstr(labels, ('le', _fmt(float(bound))))}"
                        f" {cumulative}"
                    )
                cumulative += series["counts"][-1]
                lines.append(
                    f"{name}_bucket{_labelstr(labels, ('le', '+Inf'))} {cumulative}"
                )
                lines.append(f"{name}_sum{_labelstr(labels)} {_fmt(series['sum'])}")
                lines.append(f"{name}_count{_labelstr(labels)} {series['count']}")
            else:
                lines.append(f"{name}{_labelstr(labels)} {_fmt(series['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_PAIR_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def validate_prometheus_text(text: str) -> int:
    """Structural check of a text exposition; returns the sample count.

    Verifies what a scraper would choke on: sample syntax, label-pair
    syntax, every sample preceded by a ``# TYPE`` for its family,
    histogram ``_bucket`` series cumulative and ``+Inf``-terminated with
    ``_count`` matching the ``+Inf`` bucket.  Raises ``ValueError`` on
    the first violation — CI runs this over the live ``/metrics`` and
    ``repro metrics --prom`` output.
    """
    types: Dict[str, str] = {}
    samples = 0
    hist_state: Dict[str, Dict[str, Any]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            if parts[2] in types:
                raise ValueError(f"line {lineno}: duplicate TYPE for {parts[2]}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name, labelstr, value = m.group("name"), m.group("labels"), m.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric value {value!r}"
                ) from None
        labels: Dict[str, str] = {}
        if labelstr:
            for pair in re.split(r",(?=[a-zA-Z_])", labelstr):
                if not _LABEL_PAIR_RE.match(pair):
                    raise ValueError(f"line {lineno}: malformed label pair {pair!r}")
                k, v = pair.split("=", 1)
                labels[k] = v[1:-1]
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family = base
                break
        if family not in types:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE line")
        if types[family] == "counter" and not family.endswith("_total"):
            raise ValueError(f"line {lineno}: counter {family!r} must end in _total")
        if types[family] == "histogram":
            serieskey = family + _labelstr({k: v for k, v in labels.items() if k != "le"})
            state = hist_state.setdefault(
                serieskey, {"last_bucket": None, "inf": None, "count": None}
            )
            if name.endswith("_bucket"):
                if "le" not in labels:
                    raise ValueError(f"line {lineno}: _bucket sample without le label")
                v = float(value)
                if state["last_bucket"] is not None and v < state["last_bucket"]:
                    raise ValueError(
                        f"line {lineno}: non-cumulative histogram buckets for {family}"
                    )
                state["last_bucket"] = v
                if labels["le"] == "+Inf":
                    state["inf"] = v
            elif name.endswith("_count"):
                state["count"] = float(value)
        samples += 1
    for serieskey, state in hist_state.items():
        if state["inf"] is None:
            raise ValueError(f"histogram series {serieskey} lacks an le=\"+Inf\" bucket")
        if state["count"] is not None and state["count"] != state["inf"]:
            raise ValueError(
                f"histogram series {serieskey}: _count {state['count']} != "
                f"+Inf bucket {state['inf']}"
            )
    return samples


# ---------------------------------------------------------------------------
# Bus -> hub folding


class HubMetricsListener(EngineListener):
    """Folds the engine and surveil event streams into hub instruments.

    Every :class:`~repro.engine.context.Context` registers one on its
    own hub, so the hub is a pure function of the event stream:
    replaying a recorded stream into a fresh listener reproduces the
    exposition byte for byte.  Jobs, tasks and their CPU / RSS / GC
    telemetry fold from ``JobEnd`` / ``StageEnd`` / ``TaskEnd``;
    retries, cache traffic and the surveillance campaign counters from
    their own events.
    """

    def __init__(self, hub: MetricsHub) -> None:
        self.hub = hub
        self._jobs = hub.counter(
            "repro_engine_jobs_total", "Completed engine jobs by outcome",
            labels=("status",),
        )
        # Fixed children resolved once: these handlers sit on the
        # scheduler's hot path, so they must not pay the labels() lookup
        # per event (see the <3% CI gate in
        # benchmarks/bench_engine_micro.py).
        self._jobs_ok = self._jobs.labels(status="ok")
        self._job_seconds = hub.histogram(
            "repro_engine_job_seconds", "End-to-end job wall time"
        ).labels()
        self._tasks = hub.counter(
            "repro_engine_tasks_total", "Tasks that produced a result"
        ).labels()
        self._task_seconds = hub.histogram(
            "repro_engine_task_seconds", "Per-task wall time"
        ).labels()
        self._cpu = hub.counter(
            "repro_engine_task_cpu_seconds_total", "CPU seconds consumed by tasks"
        ).labels()
        self._gc = hub.counter(
            "repro_engine_task_gc_collections_total",
            "GC collection passes observed during tasks",
        ).labels()
        self._rss = hub.gauge(
            "repro_engine_task_rss_peak_kb",
            "Largest single-task peak-RSS growth seen, KiB",
        ).labels()
        self._overhead = hub.counter(
            "repro_engine_scheduler_overhead_seconds_total",
            "Job wall time outside the critical stage path",
        ).labels()
        #: job id -> wall of its finished stage, until the job ends.
        self._stage_wall: Dict[int, float] = {}
        self._retries = hub.counter(
            "repro_engine_task_retries_total", "Task attempts that failed and were retried"
        )
        self._cache = hub.counter(
            "repro_engine_cache_events_total",
            "Block-store cache activity by outcome",
            labels=("event",),
        )
        self._cache_hit = self._cache.labels(event="hit")
        self._cache_miss = self._cache.labels(event="miss")
        self._cache_evict = self._cache.labels(event="evict")
        self._rounds = hub.counter(
            "repro_surveil_rounds_total", "Completed surveillance rounds"
        )
        self._site_screens = hub.counter(
            "repro_surveil_screens_total",
            "Screens executed per surveillance site",
            labels=("site",),
        )
        self._cases = hub.counter(
            "repro_surveil_cases_total", "Confirmed cases found across all sites"
        )
        self._tests = hub.counter(
            "repro_surveil_tests_total", "Assay tests consumed across all sites"
        )
        self._draws = hub.counter(
            "repro_surveil_allocator_draws_total",
            "Budget allocations drawn, by allocator",
            labels=("allocator",),
        )

    def on_task_end(self, event: TaskEnd) -> None:
        self._tasks.inc()
        self._task_seconds.observe(event.wall_s, trace_id=event.trace_id)
        self._cpu.inc(event.cpu_s)
        self._gc.inc(event.gc_collections)
        self._rss.set_max(event.rss_peak_kb)

    def on_stage_end(self, event: StageEnd) -> None:
        self._stage_wall[event.job_id] = event.wall_s

    def on_job_end(self, event: JobEnd) -> None:
        # A failed job posts no StageEnd: its whole wall is overhead.
        stage_wall = self._stage_wall.pop(event.job_id, 0.0)
        outcome = self._jobs_ok if event.succeeded else self._jobs.labels(status="failed")
        outcome.inc()
        self._job_seconds.observe(event.wall_s, trace_id=event.trace_id)
        self._overhead.inc(max(0.0, event.wall_s - stage_wall))

    def on_task_retry(self, event: TaskRetry) -> None:
        self._retries.inc()

    def on_cache_hit(self, event: CacheHit) -> None:
        self._cache_hit.inc()

    def on_cache_miss(self, event: CacheMiss) -> None:
        self._cache_miss.inc()

    def on_cache_evict(self, event: CacheEvict) -> None:
        self._cache_evict.inc()

    # surveil vocabulary (repro.surveil.events; dispatched by kind, so no
    # import of the surveil layer is needed here)
    def on_surveil_round_end(self, event: Any) -> None:
        self._rounds.inc()

    def on_surveil_site_screened(self, event: Any) -> None:
        self._site_screens.labels(site=event.site).inc()
        self._cases.inc(event.cases_found)
        self._tests.inc(event.tests_used)

    def on_surveil_budget_allocated(self, event: Any) -> None:
        self._draws.labels(allocator=event.allocator).inc()

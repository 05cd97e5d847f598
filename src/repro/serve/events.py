"""Serving-layer events on the engine's listener bus, and their reducer.

The server posts its own event vocabulary — request lifecycle, batch
execution, session lifecycle — on the **same** :class:`EventBus` the
engine emits job/stage/task/cache events on (PR 1's telemetry spine).
:class:`ServeMetricsListener` subscribes to that bus and folds the
serve events into labelled instruments on the context's
:class:`~repro.obs.metrics.MetricsHub`, beside the engine families the
context's own listener folds; both ``GET /metrics`` documents — the JSON
report and the Prometheus text exposition — render from that one hub
snapshot.  Nothing here polls; the bus pushes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.engine.listener import EngineEvent, EngineListener, register_event_type
from repro.obs.metrics import MetricsHub

__all__ = [
    "RequestEnd",
    "BatchExecuted",
    "SessionEvent",
    "ServeMetricsListener",
]


@dataclass
class RequestEnd(EngineEvent):
    """One HTTP request finished (any status).

    ``source`` says how the response was produced: ``computed`` (ran the
    workload), ``batched`` (rode another request's engine job),
    ``cache`` (served from the result cache), ``rejected``
    (backpressure/validation), or ``error``.
    """

    endpoint: str
    status: int
    wall_s: float
    source: str = "computed"


@dataclass
class BatchExecuted(EngineEvent):
    """The micro-batcher ran one coalesced job for ``waiters`` requests."""

    key: str
    waiters: int
    wall_s: float


@dataclass
class SessionEvent(EngineEvent):
    """Interactive-session lifecycle (``action``: created/closed/expired)."""

    session_id: str
    action: str


register_event_type(RequestEnd, "request_end")
register_event_type(BatchExecuted, "batch_executed")
register_event_type(SessionEvent, "session_event")

#: Latency bucket upper bounds, milliseconds (last bucket is +inf).
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)


def _latency_doc(child) -> Dict[str, Any]:
    """The per-endpoint latency block, read from a hub histogram."""
    count = child.count
    return {
        "count": count,
        "mean_ms": round(child.sum / count, 3) if count else 0.0,
        "p50_ms": round(child.quantile(0.50), 3),
        "p95_ms": round(child.quantile(0.95), 3),
        "p99_ms": round(child.quantile(0.99), 3),
        "max_ms": round(child.max, 3),
        "buckets_ms": list(LATENCY_BUCKETS_MS),
        "bucket_counts": list(child.counts),
    }


class ServeMetricsListener(EngineListener):
    """Folds serve events into hub instruments; snapshots ``/metrics``.

    Serve events become labelled ``repro_http_*`` / ``repro_serve_*``
    families on *hub* — the server passes its context's, where that
    context's :class:`~repro.obs.metrics.HubMetricsListener` already
    folds the engine and surveil vocabularies, so nothing is counted
    twice.  :meth:`snapshot` then *reads back* from the hub to build
    the JSON ``/metrics`` document — one data path feeds both the JSON
    report and the Prometheus text exposition.
    """

    def __init__(self, hub: MetricsHub) -> None:
        self.hub = hub
        self._requests = self.hub.counter(
            "repro_http_requests_total",
            "HTTP requests by endpoint, status and response source",
            labels=("endpoint", "status", "source"),
        )
        self._duration = self.hub.histogram(
            "repro_http_request_duration_ms",
            "HTTP request wall time, milliseconds",
            labels=("endpoint",),
            buckets=LATENCY_BUCKETS_MS,
        )
        self._batch_jobs = self.hub.counter(
            "repro_serve_batch_jobs_total", "Coalesced micro-batch jobs executed"
        )
        self._batch_waiters = self.hub.counter(
            "repro_serve_batch_waiters_total",
            "Requests that rode a coalesced micro-batch job",
        )
        self._sessions = self.hub.counter(
            "repro_serve_session_events_total",
            "Interactive-session lifecycle events by action",
            labels=("action",),
        )

    # serve-side events -------------------------------------------------
    def on_request_end(self, event: RequestEnd) -> None:
        self._requests.labels(
            endpoint=event.endpoint, status=event.status, source=event.source
        ).inc()
        self._duration.labels(endpoint=event.endpoint).observe(event.wall_s * 1000.0)

    def on_batch_executed(self, event: BatchExecuted) -> None:
        self._batch_jobs.inc()
        self._batch_waiters.inc(event.waiters)

    def on_session_event(self, event: SessionEvent) -> None:
        self._sessions.labels(action=event.action).inc()

    # export -------------------------------------------------------------
    def _engine_doc(self) -> Dict[str, Any]:
        """Engine totals from the hub's ``repro_engine_*`` families."""
        jobs = tasks = 0
        job_wall_s = 0.0
        fam = self.hub.get("repro_engine_jobs_total")
        if fam is not None:
            jobs = int(sum(child.value for _, child in fam.series()))
        fam = self.hub.get("repro_engine_tasks_total")
        if fam is not None:
            tasks = int(sum(child.value for _, child in fam.series()))
        fam = self.hub.get("repro_engine_job_seconds")
        if fam is not None:
            job_wall_s = sum(child.sum for _, child in fam.series())
        return {"jobs": jobs, "tasks": tasks, "job_wall_s": round(job_wall_s, 6)}

    def snapshot(self) -> Dict[str, Any]:
        endpoints: Dict[str, Any] = {}
        per_endpoint: Dict[str, Dict[str, Any]] = {}
        for labels, child in self._requests.series():
            stats = per_endpoint.setdefault(
                labels["endpoint"], {"requests": 0, "by_status": {}, "by_source": {}}
            )
            n = int(child.value)
            stats["requests"] += n
            status, source = labels["status"], labels["source"]
            stats["by_status"][status] = stats["by_status"].get(status, 0) + n
            stats["by_source"][source] = stats["by_source"].get(source, 0) + n
        for name in sorted(per_endpoint):
            stats = per_endpoint[name]
            endpoints[name] = {
                "requests": stats["requests"],
                "by_status": stats["by_status"],
                "by_source": stats["by_source"],
                "latency": _latency_doc(self._duration.labels(endpoint=name)),
            }
        jobs = int(self._batch_jobs.value)
        waiters = int(self._batch_waiters.value)
        return {
            "endpoints": endpoints,
            "batcher": {
                "jobs": jobs,
                "waiters": waiters,
                "batching_ratio": round(waiters / jobs, 3) if jobs else 0.0,
            },
            "sessions": {
                labels["action"]: int(child.value)
                for labels, child in self._sessions.series()
            },
            "engine": self._engine_doc(),
        }

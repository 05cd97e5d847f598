"""The serving application: routing, backpressure, shared engine context.

``ReproServer`` is the front door the ROADMAP's "heavy traffic" north
star needs: one long-lived engine :class:`~repro.engine.context.Context`
shared across requests, CPU work pushed off the event loop onto a
bounded thread pool, identical concurrent requests coalesced by the
:class:`~repro.serve.batcher.MicroBatcher`, repeat requests served from
the :class:`~repro.serve.cache.ResultCache`, and a bounded admission
queue that sheds load with 429 (compute queue full) / 503 (session or
campaign registry full) instead of melting down.

Endpoints (all JSON)::

    GET  /healthz                      liveness + queue depth
    GET  /metrics                      hub-fed counters and latency histograms
                                       (?format=prometheus for text exposition)
    POST /calculator                   pool/don't-pool decision table
    POST /screen                       one-shot cohort classification
    POST /surveil                      whole multi-site campaign, one shot
    POST /sessions                     start an interactive screen
    GET  /sessions/{id}                session snapshot
    GET  /sessions/{id}/next-pool      next stage's pool proposals
    POST /sessions/{id}/results        submit assay outcomes
    DELETE /sessions/{id}              close a session
    POST /campaigns                    start a round-by-round campaign
    GET  /campaigns/{id}               campaign snapshot
    POST /campaigns/{id}/round         advance the campaign one round
    DELETE /campaigns/{id}             close a campaign
    GET  /debug/events                 flight-recorder window (?kind=&trace_id=&limit=)
    GET  /debug/traces/{trace_id}      every retained event of one trace + summary
    GET  /debug/slow                   slow-op log (ops above the threshold)
    GET  /debug/chrome                 live Chrome trace-event export
    POST /debug/profile/start          attach the sampling profiler (?hz=)
    POST /debug/profile/stop           detach it; returns collapsed stacks
    GET  /debug/profile                profiler status
    GET  /debug/profile/flamegraph     flamegraph HTML of collected samples

Responses for ``/calculator`` and ``/screen`` are byte-identical to
``python -m repro calculator --json`` / ``screen --json``; serving
metadata (cache/batch disposition) travels in ``X-Repro-Source``
headers so the bodies stay diffable.

Every request runs under a :func:`~repro.engine.tracing.trace_scope`
(honouring an ``X-Trace-Id`` request header, minting an id otherwise)
and echoes the id in the ``X-Repro-Trace`` response header, so a client
can immediately ask ``/debug/traces/{id}`` for everything — request,
batch, job, stage, task, cache — its call caused.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import contextvars
import functools
import math
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro.engine.config import EngineConfig
from repro.engine.context import Context
from repro.engine.lockorder import OrderedLock
from repro.engine.tracing import trace_scope
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResultCache
from repro.serve.events import BatchExecuted, RequestEnd, ServeMetricsListener
from repro.serve.http import HttpError, HttpServer, Request, Response, json_response
from repro.serve.protocol import (
    BadRequest,
    CalculatorRequest,
    ScreenRequest,
    SessionCreateRequest,
    SurveilRequest,
)
from repro.serve.sessions import (
    CampaignSession,
    ServeSession,
    SessionLimitError,
    SessionRegistry,
)

__all__ = ["ServeConfig", "ReproServer", "serve"]


@dataclass(frozen=True)
class ServeConfig:
    """Server tuning knobs (all CLI-exposed via ``repro serve``)."""

    host: str = "127.0.0.1"
    port: int = 8000
    #: Engine parallelism of the shared context (thread mode).
    workers: int = 4
    #: Executor backend of the shared context: serial/threads/processes.
    engine_mode: str = "threads"
    #: Threads that run workload jobs off the event loop.
    compute_threads: int = 4
    #: Micro-batcher collection window, seconds.
    batch_window_s: float = 0.002
    #: Result-cache capacity, entries (0 disables caching).
    cache_entries: int = 256
    #: Admission bound: queued+running compute jobs before 429s.
    max_inflight: int = 32
    #: Live sessions, and separately live campaigns, before 503s.
    max_sessions: int = 64
    #: Idle seconds before a session or campaign expires.
    session_ttl_s: float = 900.0
    #: Flight-recorder ring size behind the /debug endpoints.
    flight_capacity: int = 4096
    #: Ops slower than this land in GET /debug/slow.
    slow_threshold_s: float = 0.1
    #: Posterior backend applied to requests that don't name one.
    default_backend: str = "dense"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.default_backend not in ("dense", "sparse", "particle"):
            raise ValueError(
                "default_backend must be dense/sparse/particle, "
                f"got {self.default_backend!r}"
            )
        if self.compute_threads < 1:
            raise ValueError("compute_threads must be >= 1")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if self.cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.session_ttl_s <= 0:
            raise ValueError("session_ttl_s must be > 0")
        self.engine_config()  # the engine's own checks of its fields

    def engine_config(self) -> EngineConfig:
        """Settings of the shared engine context."""
        return EngineConfig(
            mode=self.engine_mode,
            parallelism=self.workers,
            flight_capacity=self.flight_capacity,
            slow_threshold_s=self.slow_threshold_s,
        )


class ReproServer:
    """One serving process: engine context + HTTP front end."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.ctx = Context(config=self.config.engine_config())
        # Materialize the executor pool before the listening socket (or
        # any client connection) exists.  Process-mode workers fork the
        # whole pool when the executor is built; a worker forked mid-
        # request would inherit live connection fds, and a connection
        # the driver closes never reaches EOF while a long-lived worker
        # holds a duplicate.
        _ = self.ctx.executor
        # One hub for everything: the context's own listener folds the
        # engine events into ctx.metrics_hub and the serve listener folds
        # the serve events into the same hub — /metrics (JSON and
        # Prometheus) renders from that single snapshot.
        self.metrics_listener = ServeMetricsListener(hub=self.ctx.metrics_hub)
        self.ctx.add_listener(self.metrics_listener)
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_entries) if self.config.cache_entries else None
        )
        self.sessions = SessionRegistry(
            "session", self.config.max_sessions, self.config.session_ttl_s, self._post
        )
        self.campaigns = SessionRegistry(
            "campaign", self.config.max_sessions, self.config.session_ttl_s, self._post,
            action_prefix="campaign_",
        )
        self.batcher = MicroBatcher(
            self._run_compute,
            window_s=self.config.batch_window_s,
            on_batch=self._post_batch_event,
        )
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.compute_threads, thread_name_prefix="serve-compute"
        )
        # Conservative: distributed-lattice jobs share one Context, so
        # engine-touching thunks serialize here while the serial-path
        # calculator replications run concurrently on the pool.
        self._engine_lock = OrderedLock("ReproServer._engine_lock")
        self._inflight = 0
        self._started = time.monotonic()
        self._http = HttpServer(self.handle, self.config.host, self.config.port)
        self._sweeper: Optional[asyncio.Task] = None
        # On-demand sampling profiler behind POST /debug/profile/*.
        self._profiler = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns the actual (host, port)."""
        host, port = await self._http.start()
        self._sweeper = asyncio.get_running_loop().create_task(self._sweep_loop())
        return host, port

    async def serve_forever(self) -> None:
        await self._http.serve_forever()

    async def close(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        await self._http.close()
        if self._profiler is not None:
            self._profiler.stop()
            self._profiler.uninstall()
            self._profiler = None
        self.sessions.close_all()
        self.campaigns.close_all()
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.ctx.stop()

    async def _sweep_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(min(60.0, max(1.0, self.config.session_ttl_s / 4)))
                self.sessions.sweep()
                self.campaigns.sweep()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # compute plumbing
    # ------------------------------------------------------------------
    async def _run_compute(self, thunk: Callable[[], Any]) -> Any:
        loop = asyncio.get_running_loop()
        # run_in_executor does not propagate contextvars: carry the
        # request's trace scope onto the compute thread explicitly so
        # engine events stay stamped with the originating trace_id.
        return await loop.run_in_executor(
            self._executor, contextvars.copy_context().run, thunk
        )

    def _post(self, event) -> None:
        bus = self.ctx.event_bus
        if bus:
            bus.post(event)

    def _post_batch_event(self, key: str, waiters: int, wall_s: float) -> None:
        self._post(BatchExecuted(key, waiters, wall_s))

    async def _admitted(self, work: Callable[[], Awaitable[Any]]) -> Any:
        """Await ``work()`` as one of at most ``max_inflight`` compute
        requests; past that, refuse with 429."""
        if self._inflight >= self.config.max_inflight:
            raise HttpError(
                429,
                f"compute queue full ({self.config.max_inflight} in flight); retry",
            )
        self._inflight += 1
        try:
            return await work()
        finally:
            self._inflight -= 1

    def _locked(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """*fn* run under the engine lock."""
        lock = self._engine_lock

        def thunk() -> Any:
            with lock:
                return fn()

        return thunk

    async def _in_engine(self, fn: Callable[[], Any], entry=None) -> Any:
        """``fn()`` on a compute thread under the engine lock, admitted,
        holding the live *entry*'s own lock (if any) throughout."""

        async def work() -> Any:
            async with entry.lock if entry is not None else contextlib.nullcontext():
                return await self._run_compute(self._locked(fn))

        return await self._admitted(work)

    async def _cached_batched(
        self, key: str, thunk: Callable[[], Any]
    ) -> Tuple[Dict[str, Any], str]:
        """The shared fast path: cache → micro-batcher → executor."""
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit, "cache"
        jobs_before = self.batcher.jobs
        payload = await self._admitted(lambda: self.batcher.submit(key, thunk))
        source = "computed" if self.batcher.jobs > jobs_before else "batched"
        if self.cache is not None:
            self.cache.put(key, payload)
        return payload, source

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> Response:
        t0 = time.perf_counter()
        # One trace per request: an X-Trace-Id header adopts the
        # caller's id, otherwise a fresh one is minted.  The scope is
        # token-reset on exit, so keep-alive connections cannot leak a
        # trace into the next request.
        client_trace = request.headers.get("x-trace-id", "").strip() or None
        with trace_scope(trace_id=client_trace, name=request.path) as tc:
            endpoint, response, source = await self._route(request)
            wall = time.perf_counter() - t0
            if 400 <= response.status < 500:
                source = "rejected"
            elif response.status >= 500:
                source = "error"
            self._post(RequestEnd(endpoint, response.status, wall, source))
        response.headers.setdefault("X-Repro-Source", source)
        response.headers.setdefault("X-Repro-Trace", tc.trace_id)
        return response

    async def _route(self, request: Request) -> Tuple[str, Response, str]:
        segments = [s for s in request.path.split("/") if s]
        method = request.method
        try:
            if segments == ["healthz"] and method == "GET":
                return "/healthz", self._healthz(), "computed"
            if segments == ["metrics"] and method == "GET":
                return "/metrics", self._metrics(request), "computed"
            if segments and segments[0] == "debug":
                if segments[1:2] == ["profile"]:
                    return self._debug_profile(segments[2:], method, request)
                if method != "GET":
                    raise HttpError(405, f"{method} not allowed on /debug")
                return self._debug(segments[1:], request)
            if segments == ["calculator"] and method == "POST":
                return await self._calculator(request)
            if segments == ["screen"] and method == "POST":
                return await self._one_shot(ScreenRequest, "/screen", request)
            if segments == ["surveil"] and method == "POST":
                return await self._one_shot(SurveilRequest, "/surveil", request)
            if segments == ["sessions"] and method == "POST":
                return await self._session_create(request)
            if segments == ["campaigns"] and method == "POST":
                return await self._campaign_create(request)
            if len(segments) == 2 and segments[0] in ("sessions", "campaigns"):
                registry = self.sessions if segments[0] == "sessions" else self.campaigns
                if method == "GET":
                    entry = self._require(registry, segments[1])
                    return f"/{segments[0]}/{{id}}", json_response(entry.snapshot()), "computed"
                if method == "DELETE":
                    return await self._delete(registry, segments[1])
                raise HttpError(405, f"{method} not allowed here")
            if len(segments) == 3:
                action = (segments[0], segments[2], method)
                if action == ("campaigns", "round", "POST"):
                    return await self._campaign_round(segments[1])
                if action == ("sessions", "next-pool", "GET"):
                    return await self._session_next_pool(segments[1])
                if action == ("sessions", "results", "POST"):
                    return await self._session_results(request, segments[1])
            if segments and segments[0] in (
                "healthz", "metrics", "calculator", "screen", "surveil",
                "sessions", "campaigns",
            ):
                raise HttpError(405, f"{method} not allowed on /{'/'.join(segments)}")
            raise HttpError(404, f"no such endpoint: /{'/'.join(segments)}")
        except BadRequest as exc:
            endpoint = "/" + (segments[0] if segments else "")
            return endpoint, json_response({"error": str(exc)}, 400), "rejected"
        except SessionLimitError as exc:
            endpoint = "/" + (segments[0] if segments else "sessions")
            return endpoint, json_response({"error": str(exc)}, 503), "rejected"
        except HttpError as exc:
            endpoint = "/" + (segments[0] if segments else "")
            return (
                endpoint,
                json_response({"error": exc.message}, exc.status),
                "rejected",
            )

    # ------------------------------------------------------------------
    # stateless endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> Response:
        return json_response(
            {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self._started, 3),
                "inflight": self._inflight,
                "sessions": len(self.sessions),
                "campaigns": len(self.campaigns),
            }
        )

    def _metrics(self, request: Request) -> Response:
        fmt = request.query.get("format", "json")
        if fmt == "prometheus":
            text = self.ctx.metrics_hub.render_prometheus()
            return Response(
                body=text.encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if fmt != "json":
            raise HttpError(400, f"unknown metrics format {fmt!r} (json|prometheus)")
        doc = self.metrics_listener.snapshot()
        doc["uptime_s"] = round(time.monotonic() - self._started, 3)
        doc["batcher"]["counters"] = self.batcher.snapshot()
        doc["result_cache"] = (
            self.cache.snapshot() if self.cache is not None else {"enabled": False}
        )
        doc["session_registry"] = self.sessions.snapshot()
        doc["campaign_registry"] = self.campaigns.snapshot()
        return json_response(doc)

    def _debug(self, rest, request: Request) -> Tuple[str, Response, str]:
        """The flight-recorder window: ``/debug/{events,traces,slow,chrome}``."""
        recorder = self.ctx.flight_recorder
        if recorder is None:
            raise HttpError(404, "flight recorder is disabled on this server")
        if rest == ["events"]:
            try:
                limit = int(request.query.get("limit", "256"))
            except ValueError:
                raise HttpError(400, "limit must be an integer") from None
            events = recorder.events(
                kind=request.query.get("kind") or None,
                trace_id=request.query.get("trace_id") or None,
                limit=limit,
            )
            doc = {"recorder": recorder.snapshot(), "events": events}
            return "/debug/events", json_response(doc), "computed"
        if len(rest) == 2 and rest[0] == "traces":
            trace_id = rest[1]
            doc = {
                "summary": recorder.trace_summary(trace_id),
                "events": recorder.trace(trace_id),
            }
            return "/debug/traces/{trace_id}", json_response(doc), "computed"
        if rest == ["slow"]:
            doc = {
                "slow_threshold_s": recorder.slow_threshold_s,
                "events": recorder.slow(),
            }
            return "/debug/slow", json_response(doc), "computed"
        if rest == ["chrome"]:
            from repro.obs.chrome import chrome_trace

            trace_id = request.query.get("trace_id") or None
            records = recorder.events(trace_id=trace_id, limit=recorder.capacity)
            return "/debug/chrome", json_response(chrome_trace(records)), "computed"
        raise HttpError(404, f"no such debug endpoint: /debug/{'/'.join(rest)}")

    def _debug_profile(
        self, rest, method: str, request: Request
    ) -> Tuple[str, Response, str]:
        """On-demand sampling profiler: ``/debug/profile/{start,stop}``.

        Start installs a :class:`~repro.obs.sampler.Sampler`, so serial
        and thread-mode engine work is profiled directly and process-
        mode workers relay their samples through task results.  Stop
        detaches it and returns the collapsed stacks collected.
        """
        from repro.obs.sampler import Sampler

        if rest == ["start"] and method == "POST":
            if self._profiler is not None and self._profiler.running:
                raise HttpError(409, "profiler already running; stop it first")
            try:
                hz = float(request.query.get("hz", "100"))
            except ValueError:
                raise HttpError(400, "hz must be a number") from None
            if not 0 < hz <= 1000:
                raise HttpError(400, "hz must be in (0, 1000]")
            self._profiler = Sampler(hz=hz).start().install()
            doc = {"profiling": True, **self._profiler.snapshot()}
            return "/debug/profile/start", json_response(doc), "computed"
        if rest == ["stop"] and method == "POST":
            profiler = self._profiler
            if profiler is None:
                raise HttpError(409, "profiler is not running")
            profiler.stop()
            profiler.uninstall()
            self._profiler = None
            doc = {
                "profiling": False,
                **profiler.snapshot(),
                "folded": profiler.folded(),
            }
            return "/debug/profile/stop", json_response(doc), "computed"
        if rest == [] and method == "GET":
            profiler = self._profiler
            doc = {"profiling": False} if profiler is None else {
                "profiling": profiler.running, **profiler.snapshot()
            }
            return "/debug/profile", json_response(doc), "computed"
        if rest == ["flamegraph"] and method == "GET":
            profiler = self._profiler
            if profiler is None:
                raise HttpError(409, "profiler is not running")
            return (
                "/debug/profile/flamegraph",
                Response(
                    body=profiler.flamegraph_html(title="repro serve profile").encode(
                        "utf-8"
                    ),
                    content_type="text/html; charset=utf-8",
                ),
                "computed",
            )
        raise HttpError(
            404, f"no such debug endpoint: /debug/profile/{'/'.join(rest)}"
        )

    def _with_default_backend(self, payload: Any) -> Any:
        """Fill in the server's default backend when the body omits one.

        With the stock ``dense`` default this is the identity, so
        payload bytes (and cache keys) are untouched.
        """
        if (
            self.config.default_backend != "dense"
            and isinstance(payload, dict)
            and "backend" not in payload
        ):
            return {**payload, "backend": self.config.default_backend}
        return payload

    async def _calculator(self, request: Request) -> Tuple[str, Response, str]:
        req = CalculatorRequest.from_payload(self._with_default_backend(request.json()))
        payload, source = await self._cached_batched(req.key(), req.execute)
        return "/calculator", json_response(payload), source

    async def _one_shot(self, cls, endpoint: str, request: Request) -> Tuple[str, Response, str]:
        """``POST /screen`` and ``POST /surveil``: engine work behind the cache."""
        req = cls.from_payload(self._with_default_backend(request.json()))
        thunk = self._locked(functools.partial(req.execute, self.ctx))
        payload, source = await self._cached_batched(req.key(), thunk)
        return endpoint, json_response(payload), source

    # ------------------------------------------------------------------
    # live objects: interactive sessions and round-by-round campaigns
    # ------------------------------------------------------------------
    def _require(self, registry: SessionRegistry, entry_id: str):
        entry = registry.get(entry_id)
        if entry is None:
            raise HttpError(404, f"no such {registry.kind}: {entry_id}")
        entry.touch()
        return entry

    async def _delete(self, registry: SessionRegistry, entry_id: str) -> Tuple[str, Response, str]:
        entry = self._require(registry, entry_id)
        async with entry.lock:
            closed = registry.close(entry.id)
        doc = {f"{registry.kind}_id": entry.id, "closed": closed}
        return f"/{registry.kind}s/{{id}}", json_response(doc), "computed"

    async def _session_create(self, request: Request) -> Tuple[str, Response, str]:
        req = SessionCreateRequest.from_payload(self._with_default_backend(request.json()))
        serve_session = await self._in_engine(
            lambda: self.sessions.create(lambda sid: ServeSession(sid, req, self.ctx))
        )
        return "/sessions", json_response(serve_session.snapshot(), 201), "computed"

    async def _session_next_pool(self, session_id: str) -> Tuple[str, Response, str]:
        serve_session = self._require(self.sessions, session_id)
        payload = await self._in_engine(serve_session.proposal_payload, serve_session)
        return "/sessions/{id}/next-pool", json_response(payload), "computed"

    async def _session_results(
        self, request: Request, session_id: str
    ) -> Tuple[str, Response, str]:
        serve_session = self._require(self.sessions, session_id)
        body = request.json()
        if not isinstance(body, dict) or "outcomes" not in body:
            raise BadRequest("body must be an object with an 'outcomes' array")
        outcomes = body["outcomes"]
        if not isinstance(outcomes, list) or not outcomes:
            raise BadRequest("outcomes must be a non-empty array")
        binary = serve_session.session.model.binary
        for i, outcome in enumerate(outcomes):
            # A binary assay reads a call; a quantitative one (the
            # hospital scenario's viral load) reads a finite number.
            if binary:
                if not (isinstance(outcome, bool) or (type(outcome) is int and outcome in (0, 1))):
                    raise BadRequest(f"outcomes[{i}] must be true, false, 0 or 1")
            elif not (
                isinstance(outcome, (int, float))
                and not isinstance(outcome, bool)
                and math.isfinite(outcome)
            ):
                raise BadRequest(f"outcomes[{i}] must be a finite number")
        unknown = sorted(set(body) - {"outcomes"})
        if unknown:
            raise BadRequest(f"unknown results field(s): {', '.join(unknown)}")
        payload = await self._in_engine(
            functools.partial(serve_session.results, outcomes), serve_session
        )
        return "/sessions/{id}/results", json_response(payload), "computed"

    async def _campaign_create(self, request: Request) -> Tuple[str, Response, str]:
        req = SurveilRequest.from_payload(self._with_default_backend(request.json()))
        campaign = self.campaigns.create(lambda cid: CampaignSession(cid, req, self.ctx))
        return "/campaigns", json_response(campaign.snapshot(), 201), "computed"

    async def _campaign_round(self, campaign_id: str) -> Tuple[str, Response, str]:
        campaign = self._require(self.campaigns, campaign_id)
        payload = await self._in_engine(campaign.run_round, campaign)
        return "/campaigns/{id}/round", json_response(payload), "computed"


async def serve(config: Optional[ServeConfig] = None, *, ready=None) -> None:
    """Run a server until cancelled (the ``repro serve`` entry point).

    *ready*, when given, is called with the bound ``(host, port)`` once
    the listener is up — the CLI prints it, tests grab the port.
    """
    server = ReproServer(config)
    try:
        host, port = await server.start()
        if ready is not None:
            ready(host, port)
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()

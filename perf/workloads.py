"""The six workloads: input generation, the op each one times, output checks.

Every workload hands out its ops in *blocks*.  A block is the unit the
run protocol counts in: the deadline is only checked between blocks, so
every measured run is made of whole blocks and two runs differ in how
many blocks they finished, never in what a block contains.

Why blocks are balanced: a screen's work is its number of stages, and
that varies by a factor of ten between requests of one shape (cohort 12 /
prevalence 0.05: 54 % of cohorts hold no positive and finish in 3 tests,
the rest take 8 to 40; cohort 18 / 0.01: 93 % take 1 test, 7 % take 8 to
21).  Op latency is therefore bimodal with sd/mean of 0.8 to 1.2, and a
plain random draw of the ~250 requests a 10 s run holds moved throughput
by 11 to 16 % and p95 by 19 to 53 % from one seed to the next.  So the
benchmark keeps a corpus (``corpus.json``, built by ``corpus.py``) of how
many tests each request seed takes, cuts it into equal bins by work, and
fills slot ``j`` of every block from the ``j``-th twentieth of them; ``--seed``
decides which member of each bin and in what order.  Every block is then
a 20-point sketch of the same work distribution, and p50 / p95 fall
between neighbouring bins instead of between two modes.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.engine.context import Context
from repro.serve.protocol import ScreenRequest, SessionCreateRequest, SurveilRequest
from repro.simulate.population import make_cohort
from repro.simulate.testing import TestLab
from repro.surveil.campaign import SiteScreenJob, run_site_screen, site_screen_seed
from repro.util.rng import as_rng
from repro.workflows.payloads import dump_payload, screen_payload

from corpus import CORPUS, SHAPES
from probes import engine_probes
from trace import BackendProxy, CandidatesProxy, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Requests per balanced block (= work bins the corpus is cut into).
BLOCK = 20
#: Corpus bins per block slot.
FINE = 5
#: Engine parallelism of every workload (never ``cpu_count``).
PARALLELISM = 2
#: A served request slower than this misses the latency limit.
SERVE_LIMIT_S = 0.2


class Op(NamedTuple):
    """One timed operation and what its output check found."""

    latency_s: float
    ok: bool
    kind: str
    acc_num: float  # correctly classified individuals (surveil: cases found)
    acc_den: float  # individuals screened (surveil: true positives present)
    tests: int
    tests_den: int  # individuals the tests were spent on
    text: str  # the output, for payload_sha256


# ----------------------------------------------------------------------
# balanced blocks of request seeds
# ----------------------------------------------------------------------
def work_bins(shape: str, size: int) -> List[List[int]]:
    """The corpus seeds of *shape*, lightest screens first, cut into
    ``size * FINE`` equal bins; slot ``j`` of a block draws from bins
    ``j * FINE .. (j + 1) * FINE - 1``, the ``j``-th ``1/size`` of the work."""
    tests = json.loads(CORPUS.read_text())[shape]
    order = sorted(range(len(tests)), key=lambda seed: (tests[seed], seed))
    n = size * FINE
    return [order[j * len(order) // n:(j + 1) * len(order) // n] for j in range(n)]


def phase_bins(bins: List[List[int]], phase: str, part: int = 0,
               parts: int = 1) -> List[List[int]]:
    """The members of each bin that *phase* may use: ``settle`` gets every
    fourth one, ``timed`` the others, so the two never share a request;
    ``part`` / ``parts`` splits a phase further among clients."""
    settle = phase == "settle"
    return [
        [seed for i, seed in enumerate(members) if (i % 4 == 0) == settle][part::parts]
        for members in bins
    ]


def balanced_blocks(rng: np.random.Generator, bins: List[List[int]],
                    size: int) -> Iterator[List[int]]:
    """Endless blocks of *size* seeds, lightest slot first.

    Slot ``j`` steps through its :data:`FINE` bins in turn (from a random
    start), so a bin that straddles two modes of the work distribution
    contributes its members at a fixed rate, not by coin toss.  A bin is
    walked in a random order and reshuffled only when used up, so a run
    sees no request twice before ``FINE * len(bin)`` blocks.
    """
    start = rng.integers(FINE, size=size)
    queues: List[List[int]] = [[] for _ in bins]
    for k in itertools.count():
        block = []
        for slot in range(size):
            j = slot * FINE + int(k + start[slot]) % FINE
            if not queues[j]:
                queues[j].extend(int(seed) for seed in rng.permutation(bins[j]))
            block.append(queues[j].pop())
        yield block


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def check_screen(payload: Dict[str, Any], cohort: int) -> Tuple[bool, float, int]:
    """(ok, correctly classified individuals, tests) of a screen payload."""
    summary = payload["summary"]
    marginals = payload["classification"]["marginals"]
    ok = (
        len(payload["classification"]["statuses"]) == cohort
        and len(marginals) == cohort
        and all(0.0 <= m <= 1.0 for m in marginals)
        and summary["tests"] >= 1
    )
    return ok, summary["accuracy"] * summary["n_items"], summary["tests"]


def _failed(t0: float, kind: str, n: int, error: BaseException) -> Op:
    print(f"op failed ({kind}): {error!r}", file=sys.stderr)
    return Op(time.perf_counter() - t0, False, kind, 0.0, n, 0, n, "")


# ----------------------------------------------------------------------
# what the run protocol needs of a workload
# ----------------------------------------------------------------------
#: Per-layer metrics only ``serve_mixed`` measures (0 elsewhere).
SERVE_METRICS = (
    "serve.http_floor_ms", "serve.hit_ms", "serve.miss_ms", "serve.session_read_ms",
    "serve.session_write_ms", "serve.overhead_ms", "serve.cache_hit_ratio",
    "serve.batch_ratio", "serve.engine_jobs_per_request", "serve.rejected",
    "serve.over_limit_ratio",
)


class Workload:
    """``start`` → ``warm_once`` → ``run_block(next(blocks(...)))``… → ``stop``."""

    #: The traced pass may replay the timed blocks (no state survives an op).
    replayable = True
    #: Engine executor of the context this process owns (``None``: no context).
    mode: Optional[str] = None
    shape: str
    cohort: int
    #: Shape the lattice probes run at.
    prevalence, backend = 0.05, "dense"

    def __init__(self) -> None:
        self.ctx: Optional[Context] = None
        self.tracer: Optional[Tracer] = None  # set for the traced pass

    def start(self) -> None:
        if self.mode is not None:
            self.ctx = Context(mode=self.mode, parallelism=PARALLELISM)

    def stop(self) -> None:
        if self.ctx is not None:
            self.ctx.stop()

    def body(self, seed: int) -> Dict[str, Any]:
        return {**SHAPES[self.shape][0], "seed": seed}

    def trace_begin(self) -> None:
        """Called once, just before the traced pass."""

    def layer_metrics(self, ops: List[Op], blocks: Iterator[Any], seed: int) -> Dict[str, float]:
        """Per-layer metrics only this workload can measure, after the
        traced pass (*ops*); *blocks* continues the timed stream."""
        return dict.fromkeys(SERVE_METRICS + ("surveil.site_screen_ms",), 0.0)


# ----------------------------------------------------------------------
# dense / sparse one-shot screens
# ----------------------------------------------------------------------
class ScreenWorkload(Workload):
    """``ScreenRequest.from_payload(...).execute(ctx)`` + ``dump_payload``."""

    def __init__(self, shape: str, mode: Optional[str]) -> None:
        super().__init__()
        self.shape, self.mode = shape, mode
        template = SHAPES[shape][0]
        self.cohort, self.prevalence = template["cohort"], template["prevalence"]
        self.backend = template.get("backend", "dense")

    def blocks(self, rng: np.random.Generator, size: int,
               phase: str) -> Iterator[List[Dict[str, Any]]]:
        for seeds in balanced_blocks(rng, phase_bins(work_bins(self.shape, size), phase), size):
            rng.shuffle(seeds)
            yield [self.body(s) for s in seeds]

    def run_op(self, body: Dict[str, Any]) -> Op:
        t0 = time.perf_counter()
        try:
            payload = ScreenRequest.from_payload(body).execute(self.ctx)
            text = dump_payload(payload)
            latency = time.perf_counter() - t0
            ok, correct, tests = check_screen(json.loads(text), self.cohort)
        except Exception as exc:  # noqa: BLE001 - a failed op is a counted result
            return _failed(t0, "screen", self.cohort, exc)
        return Op(latency, ok, "screen", correct, self.cohort, tests, self.cohort, text)

    def run_op_traced(self, body: Dict[str, Any], tracer: Tracer) -> Op:
        """The public sequence ``execute`` runs, a span around each step."""
        from repro.sbgt.session import SBGTSession
        from repro.sbgt.stepper import ScreenStepper

        t0 = time.perf_counter()
        with tracer.span("op"):
            with tracer.span("workflows.parse_build"):
                req = ScreenRequest.from_payload(body)
                prior, model, policy, config = req.build()
            with tracer.span("sbgt.session_init"):
                session = SBGTSession(self.ctx, prior, model, config)
            session.lattice = session.analyzer.lattice = BackendProxy(session.lattice, tracer)
            policy.candidates = CandidatesProxy(policy.candidates, tracer)
            try:
                gen = as_rng(req.seed)
                cohort = make_cohort(prior, gen)
                lab = TestLab(model, cohort.truth_mask, gen)
                with tracer.span("sbgt.stepper_init"):
                    stepper = ScreenStepper(session, policy)
                while not stepper.done:
                    with tracer.span("sbgt.select"):
                        pools = stepper.next_pools()
                    with tracer.span("simulate.assay"):
                        outcomes = [lab.run(pool) for pool in pools]
                    with tracer.span("sbgt.update"):
                        stepper.submit_outcomes(outcomes)
                with tracer.span("workflows.payload"):
                    payload = screen_payload(stepper.result(cohort), request=req.canonical())
                    text = dump_payload(payload)
            finally:
                with tracer.span("sbgt.session_close"):
                    session.close()
        latency = time.perf_counter() - t0
        ok, correct, tests = check_screen(json.loads(text), self.cohort)
        return Op(latency, ok, "screen", correct, self.cohort, tests, self.cohort, text)

    def run_block(self, block: List[Dict[str, Any]]) -> List[Op]:
        if self.tracer is not None:
            return [self.run_op_traced(body, self.tracer) for body in block]
        return [self.run_op(body) for body in block]

    def warm_once(self, rng: np.random.Generator) -> None:
        self.run_op(self.body(int(rng.integers(1 << 31))))


# ----------------------------------------------------------------------
# surveillance rounds
# ----------------------------------------------------------------------
class SurveilWorkload(Workload):
    """Op = one ``campaign.run_round()``; one block = two 12-round
    campaigns, one from the lighter and one from the heavier half of the
    corpus (a single light-to-heavy cycling campaign in ``--quick``)."""

    mode = "threads"
    shape = "surveil-12x10"
    cohort = SHAPES[shape][0]["cohort"]

    def blocks(self, rng: np.random.Generator, size: int,
               phase: str) -> Iterator[List[Dict[str, Any]]]:
        slots = max(1, size // 10)
        for seeds in balanced_blocks(rng, phase_bins(work_bins(self.shape, slots), phase), slots):
            yield [self.body(s) for s in seeds]

    def run_round(self, campaign) -> Op:
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.span("surveil.round"):
                    r = campaign.run_round()
            else:
                r = campaign.run_round()
            latency = time.perf_counter() - t0
            text = json.dumps([r.index, list(r.allocations), r.screens, r.tests,
                               r.cases, r.true_positives])
            ok = (r.screens >= 1 and r.tests >= 1
                  and 0 <= r.cases <= r.true_positives)
        except Exception as exc:  # noqa: BLE001 - a failed op is a counted result
            return _failed(t0, "round", 0, exc)
        return Op(latency, ok, "round", r.cases, r.true_positives, r.tests,
                  r.screens * self.cohort, text)

    def run_block(self, block: List[Dict[str, Any]]) -> List[Op]:
        ops: List[Op] = []
        for body in block:
            campaign = SurveilRequest.from_payload(body).build_campaign(self.ctx)
            ops += [self.run_round(campaign) for _ in range(body["rounds"])]
        return ops

    def warm_once(self, rng: np.random.Generator) -> None:
        body = self.body(int(rng.integers(1 << 31)))
        self.run_round(SurveilRequest.from_payload(body).build_campaign(self.ctx))

    def layer_metrics(self, ops: List[Op], blocks: Iterator[Any], seed: int) -> Dict[str, float]:
        """``run_site_screen`` in this process, one round's worth of sites."""
        req = SurveilRequest.from_payload(self.body(seed))
        jobs = [
            SiteScreenJob(spec=spec, round_index=0, site_index=k, draw=0,
                          seed=site_screen_seed(seed, 0, k, 0), policy=req.policy,
                          backend=req.backend, max_stages=req.max_stages)
            for k, spec in enumerate(req.build_fleet())
        ]
        t0 = time.perf_counter()
        for job in jobs:
            run_site_screen(job)
        site_ms = 1e3 * (time.perf_counter() - t0) / len(jobs)
        return {**super().layer_metrics(ops, blocks, seed), "surveil.site_screen_ms": site_ms}


# ----------------------------------------------------------------------
# the HTTP server under mixed traffic
# ----------------------------------------------------------------------
class HttpClient:
    """One keep-alive HTTP/1.1 connection (closed loop: one request out)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def request(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes, float]:
        """(status, body, seconds from send to last body byte)."""
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n")
        t0 = time.perf_counter()
        self.writer.write(head.encode("latin-1") + data)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length)
        return status, payload, time.perf_counter() - t0


async def _gather(coroutines) -> List[Any]:
    return await asyncio.gather(*coroutines)


class ServeWorkload(Workload):
    """``python -m repro serve`` under two closed-loop keep-alive clients.

    One block = one chunk per client.  A chunk consumes one balanced
    block of :data:`BLOCK` cohorts whole: ``size - 1`` computed
    ``POST /screen`` bodies, one interactive session (create, then
    ``next-pool`` reads alternating with ``results`` writes, then delete)
    on the cohort of a fixed light slot, so that every chunk holds the
    same number of requests, and ``size // 5`` repeats of a body this
    client completed within its last 32 screens (cache hits).  Computed
    screens are 3 in 5 of the requests, which keeps the median request
    inside one class.  Each client's script depends only on
    the seed, never on timing.
    """

    replayable = False  # a second pass over the same bodies would hit the cache
    mode = "threads"  # of the server's context, and of the equal one the probes use
    CLIENTS = 2
    #: Chunks client 0 runs alone after the traced pass.
    SOLO_CHUNKS = 3
    shape = "dense-12-0.05"
    cohort = SHAPES[shape][0]["cohort"]

    def __init__(self) -> None:
        super().__init__()  # ``ctx`` stays None: the engine lives in the server process
        self.server: Optional[subprocess.Popen] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.clients: List[HttpClient] = []
        self._metrics_before: Dict[str, Any] = {}

    # lifecycle ---------------------------------------------------------
    def start(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(PARALLELISM), "--compute-threads", "2"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        line = self.server.stderr.readline()
        if "listening on http://" not in line:
            rest = self.server.stderr.read() if self.server.poll() is not None else ""
            raise RuntimeError(f"server did not start: {line}{rest}")
        host, port = line.rsplit("http://", 1)[1].strip().split(":")
        self.loop = asyncio.new_event_loop()
        self.clients = [HttpClient(host, int(port)) for _ in range(self.CLIENTS)]
        self.loop.run_until_complete(_gather(c.open() for c in self.clients))

    def stop(self) -> None:
        try:
            if self.loop is not None:
                self.loop.run_until_complete(_gather(c.close() for c in self.clients))
                self.loop.close()
        finally:
            if self.server is not None:
                self.server.terminate()
                try:
                    self.server.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
                self.server.stderr.close()

    # inputs ------------------------------------------------------------
    def _chunks(self, rng: np.random.Generator,
                bins: List[List[int]]) -> Iterator[List[Tuple[str, Any]]]:
        size = len(bins) // FINE
        recent: collections.deque = collections.deque(maxlen=32)
        for seeds in balanced_blocks(rng, bins, size):
            session = seeds[size // 4]
            units = [("session" if s == session else "screen", self.body(s)) for s in seeds]
            units += [("hit", None)] * (size // 5)
            rng.shuffle(units)
            units.sort(key=lambda u: u[0] == "hit" and not recent)  # no history yet: hits last
            chunk: List[Tuple[str, Any]] = []
            for kind, body in units:
                if kind == "hit":
                    body = recent[int(rng.integers(len(recent)))]
                elif kind == "screen":
                    recent.append(body)
                chunk.append((kind, body))
            yield chunk

    def blocks(self, rng: np.random.Generator, size: int,
               phase: str) -> Iterator[List[List[Tuple[str, Any]]]]:
        bins = work_bins(self.shape, size)
        streams = [
            self._chunks(child, phase_bins(bins, phase, client, self.CLIENTS))
            for client, child in enumerate(rng.spawn(self.CLIENTS))
        ]
        while True:
            yield [next(s) for s in streams]

    # ops ---------------------------------------------------------------
    async def _call(self, client: HttpClient, kind: str, method: str, path: str,
                    body: Optional[Dict[str, Any]] = None) -> Tuple[Op, Any]:
        t0 = time.perf_counter()
        try:
            status, raw, latency = await client.request(method, path, body)
            doc = json.loads(raw)
        except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
            return _failed(t0, kind, 0, exc), None
        if self.tracer is not None:
            self.tracer.add(f"serve.{kind}", t0, t0 + latency, tid=self.clients.index(client))
        if not 200 <= status < 300:
            print(f"{method} {path} -> {status}: {raw[:200]!r}", file=sys.stderr)
            return Op(latency, False, f"status_{status}", 0.0, 0, 0, 0, ""), None
        return Op(latency, True, kind, 0.0, 0, 0, 0, ""), doc

    async def _screen(self, client: HttpClient, kind: str, body: Dict[str, Any]) -> List[Op]:
        op, doc = await self._call(client, kind, "POST", "/screen", body)
        if doc is None:
            return [op._replace(acc_den=self.cohort, tests_den=self.cohort)]
        ok, correct, tests = check_screen(doc, self.cohort)
        text = json.dumps(doc, sort_keys=True)
        return [Op(op.latency_s, ok, kind, correct, self.cohort, tests, self.cohort, text)]

    async def _session(self, client: HttpClient, body: Dict[str, Any]) -> List[Op]:
        """One interactive screen; the assays are this client's seeded lab."""
        n = self.cohort
        prior, model, _, _ = SessionCreateRequest.from_payload(body).build()
        gen = as_rng(body["seed"])
        truth = make_cohort(prior, gen).truth_mask
        lab = TestLab(model, truth, gen)
        op, doc = await self._call(client, "session_create", "POST", "/sessions", body)
        ops = [op]
        if doc is None:
            return [op._replace(acc_den=n, tests_den=n)]
        base = f"/sessions/{doc['session_id']}"
        snapshot = doc
        while not snapshot["done"]:
            op, proposal = await self._call(client, "session_read", "GET", base + "/next-pool")
            ops.append(op)
            if proposal is None or not proposal["pools"]:
                break
            outcomes = [bool(lab.run(p["mask"])) for p in proposal["pools"]]
            op, doc = await self._call(client, "session_write", "POST", base + "/results",
                                       {"outcomes": outcomes})
            ops.append(op)
            if doc is None:
                break
            snapshot = doc
        statuses = snapshot["classification"]["statuses"]
        marginals = snapshot["classification"]["marginals"]
        correct = sum(
            status == ("positive" if (truth >> i) & 1 else "negative")
            for i, status in enumerate(statuses)
        )
        ok = (snapshot["done"] and len(statuses) == n and snapshot["num_tests"] >= 1
              and all(0.0 <= m <= 1.0 for m in marginals))
        op, _ = await self._call(client, "session_delete", "DELETE", base)
        text = json.dumps([statuses, marginals, snapshot["num_tests"]])
        ops.append(Op(op.latency_s, op.ok and ok, op.kind, correct, n,
                      snapshot["num_tests"], n, text))
        return ops

    async def _run_chunk(self, client: HttpClient, chunk: List[Tuple[str, Any]]) -> List[Op]:
        ops: List[Op] = []
        for kind, body in chunk:
            t0 = time.perf_counter()
            try:
                if kind == "session":
                    ops += await self._session(client, body)
                else:
                    ops += await self._screen(client, "miss" if kind == "screen" else "hit", body)
            except (KeyError, TypeError, ValueError) as exc:  # a malformed response body
                ops.append(_failed(t0, kind, self.cohort, exc))
        return ops

    def run_block(self, block: List[List[Tuple[str, Any]]]) -> List[Op]:
        per_client = self.loop.run_until_complete(
            _gather(self._run_chunk(c, chunk) for c, chunk in zip(self.clients, block)))
        return [op for ops in per_client for op in ops]

    def warm_once(self, rng: np.random.Generator) -> None:
        body = self.body(int(rng.integers(1 << 31)))
        self.loop.run_until_complete(self._screen(self.clients[0], "miss", body))

    # per-layer ---------------------------------------------------------
    def _get(self, path: str) -> Tuple[Any, float]:
        """(parsed body, seconds) of one GET on client 0."""
        _, raw, latency = self.loop.run_until_complete(self.clients[0].request("GET", path))
        return json.loads(raw), latency

    def trace_begin(self) -> None:
        self._metrics_before = self._get("/metrics")[0]

    def layer_metrics(self, ops: List[Op], blocks: Iterator[Any], seed: int) -> Dict[str, float]:
        """``GET /metrics`` deltas over the two-client traced pass (*ops*);
        latency by request class from chunks client 0 then runs alone, so
        that it is service time, without the wait for the other client's
        engine lock; and the same computed bodies executed in this process
        on an equal context (the server keeps its own to itself)."""
        before, after = self._metrics_before, self._get("/metrics")[0]
        solo = [op for _ in range(self.SOLO_CHUNKS) for op in self.loop.run_until_complete(
            self._run_chunk(self.clients[0], next(blocks)[0]))]

        def p50(kind: str) -> float:
            values = [1e3 * op.latency_s for op in solo if op.kind == kind]
            return statistics.median(values) if values else 0.0

        def delta(*path: str) -> float:
            a, b = after, before
            for key in path:
                a, b = a[key], b[key]
            return a - b

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        local = []
        with Context(mode=self.mode, parallelism=PARALLELISM) as ctx:
            for op in solo:
                if op.kind == "miss" and op.ok:
                    t0 = time.perf_counter()
                    ScreenRequest.from_payload(json.loads(op.text)["request"]).execute(ctx)
                    local.append(1e3 * (time.perf_counter() - t0))
            noop = engine_probes(ctx)
        requests = sum(delta("endpoints", e, "requests") for e in before["endpoints"])
        hits = delta("result_cache", "hits")
        return {
            **noop,
            "serve.http_floor_ms":
                1e3 * statistics.median(self._get("/healthz")[1] for _ in range(50)),
            "serve.hit_ms": p50("hit"),
            "serve.miss_ms": p50("miss"),
            "serve.session_read_ms": p50("session_read"),
            "serve.session_write_ms": p50("session_write"),
            "serve.overhead_ms": p50("miss") - (statistics.median(local) if local else 0.0),
            "serve.cache_hit_ratio": ratio(hits, hits + delta("result_cache", "misses")),
            "serve.batch_ratio": ratio(delta("batcher", "counters", "requests"),
                                       delta("batcher", "counters", "jobs")),
            "serve.engine_jobs_per_request": ratio(delta("engine", "jobs"), requests),
            "serve.rejected": float(sum(op.kind in ("status_429", "status_503") for op in ops)),
            "serve.over_limit_ratio":
                sum(not op.ok or op.latency_s > SERVE_LIMIT_S for op in ops) / len(ops),
            "surveil.site_screen_ms": 0.0,
        }


# ----------------------------------------------------------------------
def make_workload(name: str):
    """The workload called *name* in ``BENCHMARK.json``."""
    if name == "dense_small":
        return ScreenWorkload("dense-12-0.05", "threads")
    if name == "dense_large":
        return ScreenWorkload("dense-18-0.01", "threads")
    if name == "dense_procs":
        return ScreenWorkload("dense-12-0.05", "processes")
    if name == "sparse_n120":
        return ScreenWorkload("sparse-120-0.02", None)
    if name == "surveil_rounds":
        return SurveilWorkload()
    if name == "serve_mixed":
        return ServeWorkload()
    raise ValueError(f"unknown workload {name!r}")

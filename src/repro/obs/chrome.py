"""Chrome trace-event export: render engine history into ``about:tracing``.

:func:`chrome_trace` converts a stream of *record dicts* — flight
recorder events (:meth:`~repro.obs.flight.FlightRecorder.events`) and/or
tracer JSONL records (:meth:`~repro.obs.Tracer.dump_jsonl`) — into the
Chrome trace-event JSON object format, loadable by ``chrome://tracing``
and Perfetto.

Mapping:

* ``task_end`` → ``X`` (complete) slices on one track per worker, placed
  at the worker-side wall-clock start stamp (``t0_wall``), which is the
  only timestamp that orders correctly across processes;
* ``stage_end`` / ``job_end`` / serve ``request_end`` /
  ``batch_executed`` → ``X`` slices on the driver track (start derived
  as ``wall - wall_s``);
* tracer phase spans (``record == "span"``) → nested ``B``/``E`` pairs
  on a dedicated phases track (spans nest properly by construction);
* cache events → ``C`` counter samples (cumulative);
* ``task_retry`` / remaining point events → ``i`` instants.

Timestamps are microseconds relative to the earliest record, so the
viewer opens at t≈0 instead of the Unix epoch.

:func:`validate_chrome_trace` is a dependency-free structural checker
(no ``jsonschema`` in this environment) used by tests and the CI smoke
step to guarantee exported files actually load in the viewer.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple, Union

__all__ = ["chrome_trace", "validate_chrome_trace"]

#: Driver-side pseudo pid for records with no worker attribution.
_DRIVER_PID = 0
_DRIVER_TID = 0
_PHASES_TID = 1

#: Event kinds rendered as duration slices from their ``wall_s``.
_SLICE_KINDS = (
    "task_end",
    "stage_end",
    "job_end",
    "request_end",
    "batch_executed",
    "surveil_round_end",
)
#: Columns of the cumulative ``cache`` counter, sampled on every matching event.
_CACHE_COUNTERS = {"cache_hit": "hits", "cache_miss": "misses", "cache_evict": "evictions"}


def _instant_name(rec: Dict[str, Any]) -> Union[str, None]:
    """Instant ("i") label for point events; ``None`` = not an instant."""
    kind = rec.get("kind", "")
    if kind == "task_retry":
        return f"retry s{rec.get('stage_id', '?')}p{rec.get('partition', '?')}"
    if kind == "surveil_round_start":
        return f"round {rec.get('round_index', '?')} start (budget {rec.get('budget', '?')})"
    if kind == "surveil_budget_allocated":
        return f"allocate[{rec.get('allocator', '?')}] r{rec.get('round_index', '?')}"
    if kind == "surveil_site_screened":
        return (
            f"{rec.get('site', 'site?')} r{rec.get('round_index', '?')}: "
            f"{rec.get('cases_found', '?')} cases / {rec.get('tests_used', '?')} tests"
        )
    return None


def _slice_name(rec: Dict[str, Any]) -> str:
    kind = rec.get("kind", "")
    if kind == "task_end":
        return f"task s{rec.get('stage_id', '?')}p{rec.get('partition', '?')}"
    if kind == "stage_end":
        return f"stage {rec.get('stage_id', '?')} ({rec.get('stage_kind', '')})"
    if kind == "job_end":
        return f"job {rec.get('job_id', '?')}"
    if kind == "request_end":
        return f"request {rec.get('endpoint', '')}".strip()
    if kind == "batch_executed":
        return f"batch n={rec.get('batch_size', '?')}"
    if kind == "surveil_round_end":
        return (
            f"surveil round {rec.get('round_index', '?')} "
            f"({rec.get('cases', '?')} cases)"
        )
    return kind or "event"


def _args(rec: Dict[str, Any]) -> Dict[str, Any]:
    """Slice args: the record minus timing fields already on the event."""
    drop = ("time", "wall", "t0_wall", "seq")
    return {k: v for k, v in rec.items() if k not in drop and v not in (None, "")}


def _worker_track(
    worker: str, tracks: Dict[str, Tuple[int, int]], meta: List[Dict[str, Any]]
) -> Tuple[int, int]:
    """pid/tid for a ``"<pid>/<thread-name>"`` worker string (cached)."""
    track = tracks.get(worker)
    if track is not None:
        return track
    pid_s, _, thread = worker.partition("/")
    try:
        pid = int(pid_s)
    except ValueError:
        pid = _DRIVER_PID
    # tids 0/1 are reserved for the driver and phase tracks.
    tid = 2 + sum(1 for p, _t in tracks.values() if p == pid)
    tracks[worker] = (pid, tid)
    meta.append(_thread_name(pid, tid, thread or worker))
    return pid, tid


def _thread_name(pid: int, tid: int, name: str) -> Dict[str, Any]:
    return {
        "ph": "M",
        "name": "thread_name",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def chrome_trace(
    records: Iterable[Dict[str, Any]], title: str = "repro"
) -> Dict[str, Any]:
    """Build a Chrome trace-event JSON object from record dicts.

    Accepts flight-recorder event dicts and tracer JSONL records in any
    mix; unknown record shapes are skipped.  Returns the JSON object
    format (``{"traceEvents": [...], ...}``) ready for ``json.dump``.
    """
    recs = [r for r in records if isinstance(r, dict)]

    # Time base: earliest wall stamp across everything convertible.
    starts: List[float] = []
    for r in recs:
        if r.get("record") == "span":
            t0w = r.get("t0_wall", 0.0)
            if t0w:
                starts.append(float(t0w))
        elif "wall" in r:
            w = float(r["wall"])
            t0w = float(r.get("t0_wall", 0.0) or 0.0)
            dur = float(r.get("wall_s", 0.0) or 0.0)
            starts.append(t0w if t0w else w - dur)
    base = min(starts) if starts else 0.0

    def us(wall: float) -> float:
        return round((wall - base) * 1e6, 3)

    meta: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _DRIVER_PID,
            "tid": _DRIVER_TID,
            "args": {"name": f"{title} driver"},
        },
        _thread_name(_DRIVER_PID, _DRIVER_TID, "driver"),
        _thread_name(_DRIVER_PID, _PHASES_TID, "sbgt-phases"),
    ]
    out: List[Dict[str, Any]] = []
    tracks: Dict[str, Tuple[int, int]] = {}
    worker_pids: Dict[int, None] = {}
    counters: Dict[str, float] = {}

    # Tracer spans render as properly nested B/E pairs: sort by entry
    # time, then emit B at t0 and E at t0+wall via an explicit close
    # stack (spans from one tracer thread cannot partially overlap).
    spans = [r for r in recs if r.get("record") == "span" and r.get("t0_wall")]
    spans.sort(key=lambda r: float(r["t0_wall"]))
    open_ends: List[float] = []  # end times of currently open B's

    def close_until(t: float) -> None:
        while open_ends and open_ends[-1] <= t:
            end = open_ends.pop()
            out.append({"ph": "E", "pid": _DRIVER_PID, "tid": _PHASES_TID, "ts": us(end)})

    for r in spans:
        t0 = float(r["t0_wall"])
        close_until(t0)
        out.append(
            {
                "ph": "B",
                "name": r.get("label") or r.get("phase", "span"),
                "cat": r.get("phase", ""),
                "pid": _DRIVER_PID,
                "tid": _PHASES_TID,
                "ts": us(t0),
                "args": {"phase": r.get("phase", ""), "self_s": r.get("self_s", 0.0)},
            }
        )
        open_ends.append(t0 + float(r.get("wall_s", 0.0)))
    close_until(float("inf"))

    for r in recs:
        kind = r.get("kind")
        if kind is None or "wall" not in r:
            continue  # stage/summary JSONL records, foreign shapes
        wall = float(r["wall"])
        if kind in _SLICE_KINDS:
            dur = float(r.get("wall_s", 0.0) or 0.0)
            t0w = float(r.get("t0_wall", 0.0) or 0.0)
            start = t0w if t0w else wall - dur
            worker = r.get("worker", "")
            if worker:
                pid, tid = _worker_track(worker, tracks, meta)
                if pid not in worker_pids:
                    worker_pids[pid] = None
                    meta.append(
                        {
                            "ph": "M",
                            "name": "process_name",
                            "pid": pid,
                            "tid": tid,
                            "args": {"name": f"{title} worker pid {pid}"},
                        }
                    )
            else:
                pid, tid = _DRIVER_PID, _DRIVER_TID
            out.append(
                {
                    "ph": "X",
                    "name": _slice_name(r),
                    "cat": r.get("phase") or kind,
                    "pid": pid,
                    "tid": tid,
                    "ts": us(start),
                    "dur": round(max(dur, 0.0) * 1e6, 3),
                    "args": _args(r),
                }
            )
        elif kind in _CACHE_COUNTERS:
            col = _CACHE_COUNTERS[kind]
            counters[col] = counters.get(col, 0.0) + 1.0
            out.append(
                {
                    "ph": "C",
                    "name": "cache",
                    "pid": _DRIVER_PID,
                    "tid": _DRIVER_TID,
                    "ts": us(wall),
                    "args": {c: counters.get(c, 0.0) for c in _CACHE_COUNTERS.values()},
                }
            )
        else:
            name = _instant_name(r)
            if name is not None:
                out.append(
                    {
                        "ph": "i",
                        "name": name,
                        "cat": "retry" if kind == "task_retry" else (r.get("phase") or kind),
                        "pid": _DRIVER_PID,
                        "tid": _DRIVER_TID,
                        "ts": us(wall),
                        "s": "g",
                        "args": _args(r),
                    }
                )

    out.sort(key=lambda e: e.get("ts", 0.0))
    return {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.chrome", "title": title},
    }


_KNOWN_PH = {"X", "B", "E", "C", "M", "i", "I"}


def validate_chrome_trace(doc: Any) -> int:
    """Structurally validate a Chrome trace object; returns event count.

    Checks the JSON object format: a ``traceEvents`` list whose entries
    carry a known ``ph``, integer ``pid``/``tid``, numeric ``ts`` (and
    non-negative ``dur`` for ``X``), names where required, and balanced
    ``B``/``E`` nesting per track.  Raises :class:`ValueError` listing
    every problem found — deliberately hand-rolled since the environment
    has no JSON-schema package.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        raise ValueError(f"trace must be a JSON object, got {type(doc).__name__}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace must contain a 'traceEvents' list")

    open_b: Dict[Tuple[int, int], int] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PH:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} must be an int")
        if ph != "M":
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"{where}: ts must be a number")
        if ph in ("X", "B", "C", "M", "i", "I") and not isinstance(ev.get("name"), str):
            problems.append(f"{where}: missing name")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            problems.append(f"{where}: C event needs an args object")
        if ph in ("B", "E"):
            track = (ev.get("pid"), ev.get("tid"))
            if ph == "B":
                open_b[track] = open_b.get(track, 0) + 1
            else:
                if open_b.get(track, 0) <= 0:
                    problems.append(f"{where}: E without matching B on track {track}")
                else:
                    open_b[track] -= 1
    for track, n in open_b.items():
        if n:
            problems.append(f"{n} unclosed B event(s) on track {track}")

    if problems:
        raise ValueError(
            f"invalid Chrome trace ({len(problems)} problem(s)):\n  "
            + "\n  ".join(problems[:20])
        )
    return len(events)

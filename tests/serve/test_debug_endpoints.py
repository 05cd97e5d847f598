"""/debug endpoints and end-to-end request↔engine trace correlation.

The PR's acceptance path: a served ``POST /screen`` must yield events
queryable under one trace id spanning serve *and* engine vocabularies
(request_end + job/stage/task events), in every executor mode.
"""

import pytest

from repro.obs.chrome import validate_chrome_trace
from repro.serve.app import ServeConfig

from tests.serve.serve_utils import http_call, run_with_server

SCREEN_BODY = {"cohort": 6, "prevalence": 0.05, "seed": 2}
ENGINE_MODES = ["serial", "threads", "processes"]


def _config(**kw) -> ServeConfig:
    kw.setdefault("port", 0)
    kw.setdefault("workers", 2)
    kw.setdefault("compute_threads", 2)
    return ServeConfig(**kw)


@pytest.mark.parametrize("engine_mode", ENGINE_MODES)
def test_screen_request_correlates_serve_and_engine_events(engine_mode):
    async def scenario(server, host, port):
        status, _, headers, _ = await http_call(
            host, port, "POST", "/screen", SCREEN_BODY
        )
        assert status == 200
        trace_id = headers["x-repro-trace"]
        jobs = server.ctx.metrics_hub.get("repro_engine_jobs_total")
        return trace_id, jobs.labels(status="ok").value, await http_call(
            host, port, "GET", f"/debug/traces/{trace_id}"
        )

    trace_id, jobs_counted, (status, doc, _, _) = run_with_server(
        scenario, _config(engine_mode=engine_mode)
    )
    assert status == 200
    summary, events = doc["summary"], doc["events"]
    assert summary["trace_id"] == trace_id
    kinds = set(summary["kinds"])
    assert kinds >= {
        "request_end",
        "job_start", "job_end",
        "stage_start", "stage_end",
        "task_start", "task_end",
    }, f"incomplete correlation in {engine_mode} mode: {sorted(kinds)}"
    assert all(e["trace_id"] == trace_id for e in events)
    # request_end closes the trace: it is the last event recorded for it
    assert events[-1]["kind"] == "request_end"
    assert events[-1]["endpoint"] == "/screen"
    # One fold per event: the hub counts each of the request's jobs once.
    assert jobs_counted == summary["kinds"]["job_end"] > 0


def test_client_supplied_trace_id_is_honored():
    async def scenario(server, host, port):
        status, _, headers, _ = await http_call(
            host, port, "POST", "/screen", SCREEN_BODY,
            headers={"X-Trace-Id": "cafebabe12345678"},
        )
        assert status == 200
        assert headers["x-repro-trace"] == "cafebabe12345678"
        return await http_call(
            host, port, "GET", "/debug/traces/cafebabe12345678"
        )

    status, doc, _, _ = run_with_server(scenario)
    assert status == 200
    assert doc["summary"]["events"] > 0


def test_distinct_requests_get_distinct_trace_ids():
    async def scenario(server, host, port):
        r1 = await http_call(host, port, "GET", "/healthz")
        r2 = await http_call(host, port, "GET", "/healthz")
        return r1[2]["x-repro-trace"], r2[2]["x-repro-trace"]

    t1, t2 = run_with_server(scenario)
    assert t1 and t2 and t1 != t2


def test_debug_events_filters_and_recorder_stats():
    async def scenario(server, host, port):
        await http_call(host, port, "POST", "/screen", SCREEN_BODY)
        full = await http_call(host, port, "GET", "/debug/events")
        filtered = await http_call(
            host, port, "GET", "/debug/events?kind=task_end&limit=2"
        )
        bad = await http_call(host, port, "GET", "/debug/events?limit=soon")
        return full, filtered, bad

    (fs, fdoc, _, _), (ss, sdoc, _, _), (bs, bdoc, _, _) = run_with_server(scenario)
    assert fs == 200
    assert fdoc["recorder"]["total_seen"] > 0
    assert fdoc["recorder"]["capacity"] == 4096
    assert {e["kind"] for e in fdoc["events"]} >= {"task_end", "request_end"}
    assert ss == 200
    assert [e["kind"] for e in sdoc["events"]] == ["task_end", "task_end"]
    assert bs == 400 and "limit" in bdoc["error"]


def test_debug_slow_reports_threshold():
    async def scenario(server, host, port):
        return await http_call(host, port, "GET", "/debug/slow")

    status, doc, _, _ = run_with_server(
        scenario, _config(slow_threshold_s=0.25)
    )
    assert status == 200
    assert doc["slow_threshold_s"] == 0.25
    assert isinstance(doc["events"], list)


def test_debug_chrome_exports_valid_trace():
    async def scenario(server, host, port):
        status, _, headers, _ = await http_call(
            host, port, "POST", "/screen", SCREEN_BODY
        )
        assert status == 200
        trace_id = headers["x-repro-trace"]
        return (
            await http_call(host, port, "GET", "/debug/chrome"),
            await http_call(host, port, "GET", f"/debug/chrome?trace_id={trace_id}"),
        )

    (s_all, all_doc, _, _), (s_one, one_doc, _, _) = run_with_server(scenario)
    assert s_all == 200 and s_one == 200
    assert validate_chrome_trace(all_doc) > 0
    assert validate_chrome_trace(one_doc) > 0
    assert len(one_doc["traceEvents"]) <= len(all_doc["traceEvents"])


def test_debug_rejects_non_get_and_unknown_paths():
    async def scenario(server, host, port):
        return (
            await http_call(host, port, "POST", "/debug/events", {}),
            await http_call(host, port, "GET", "/debug/nope"),
        )

    (s405, _, _, _), (s404, b404, _, _) = run_with_server(scenario)
    assert s405 == 405
    assert s404 == 404 and "debug" in b404["error"]


def test_debug_404_when_recorder_disabled():
    async def scenario(server, host, port):
        server.ctx.flight_recorder = None  # what flight_recorder=False yields
        return await http_call(host, port, "GET", "/debug/events")

    status, body, _, _ = run_with_server(scenario)
    assert status == 404
    assert "disabled" in body["error"]

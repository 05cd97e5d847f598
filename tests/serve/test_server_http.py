"""Integration tests: the full server over real sockets.

Each test boots a :class:`ReproServer` on an ephemeral port inside one
``asyncio.run`` and talks raw HTTP to it.
"""

import asyncio
import json

import pytest

from repro.serve.app import ServeConfig
from repro.workflows.payloads import dump_payload

from tests.serve.serve_utils import http_call, run_with_server

CALC_BODY = {"cohort": 5, "prevalences": [0.05], "replications": 2, "seed": 3}


def test_healthz_reports_ok():
    async def scenario(server, host, port):
        return await http_call(host, port, "GET", "/healthz")

    status, body, headers, _ = run_with_server(scenario)
    assert status == 200
    assert body["status"] == "ok"
    assert body["sessions"] == 0
    assert headers["content-type"] == "application/json"


def test_unknown_endpoint_404_and_bad_method_405():
    async def scenario(server, host, port):
        return (
            await http_call(host, port, "GET", "/nope"),
            await http_call(host, port, "PUT", "/calculator"),
        )

    (s404, b404, _, _), (s405, b405, _, _) = run_with_server(scenario)
    assert s404 == 404 and "no such endpoint" in b404["error"]
    assert s405 == 405


def test_calculator_body_matches_dump_payload_exactly():
    """The wire body is byte-identical to the shared serializer's text."""

    async def scenario(server, host, port):
        return await http_call(host, port, "POST", "/calculator", CALC_BODY)

    status, payload, headers, raw = run_with_server(scenario)
    assert status == 200
    assert raw.decode("utf-8") == dump_payload(payload)
    assert payload["kind"] == "calculator"
    assert headers["x-repro-source"] == "computed"


def test_repeat_request_served_from_cache():
    async def scenario(server, host, port):
        cold = await http_call(host, port, "POST", "/calculator", CALC_BODY)
        warm = await http_call(host, port, "POST", "/calculator", CALC_BODY)
        return cold, warm, server.cache.snapshot()

    (_, cold_body, cold_h, cold_raw), (_, warm_body, warm_h, warm_raw), cache = (
        run_with_server(scenario)
    )
    assert cold_h["x-repro-source"] == "computed"
    assert warm_h["x-repro-source"] == "cache"
    assert cold_raw == warm_raw
    assert cache["hits"] == 1


def test_concurrent_identical_requests_batch_into_few_jobs():
    """The ISSUE acceptance bar: 64 concurrent identical calculator
    requests must produce < 8 underlying jobs."""

    async def scenario(server, host, port):
        results = await asyncio.gather(
            *[http_call(host, port, "POST", "/calculator", CALC_BODY)
              for _ in range(64)]
        )
        return results, server.batcher.snapshot()

    config = ServeConfig(port=0, workers=2, compute_threads=4,
                         batch_window_s=0.05, max_inflight=128)
    results, batch = run_with_server(scenario, config)
    assert all(status == 200 for status, _, _, _ in results)
    bodies = {raw for _, _, _, raw in results}
    assert len(bodies) == 1, "coalesced requests must share one payload"
    assert batch["jobs"] < 8, f"64 identical requests ran {batch['jobs']} jobs"
    assert batch["requests"] == 64


def test_screen_endpoint_runs_engine_job():
    async def scenario(server, host, port):
        status, body, _, _ = await http_call(
            host, port, "POST", "/screen",
            {"cohort": 8, "prevalence": 0.05, "seed": 1, "policy": "bha"},
        )
        return status, body

    status, body = run_with_server(scenario)
    assert status == 200
    assert body["kind"] == "screen"
    assert len(body["classification"]["statuses"]) == 8
    assert set(body["classification"]["statuses"]) <= {
        "positive", "negative", "undetermined"
    }


def test_validation_error_is_400_with_message():
    async def scenario(server, host, port):
        return await http_call(host, port, "POST", "/calculator", {"cohort": 99})

    status, body, headers, _ = run_with_server(scenario)
    assert status == 400
    assert "cohort" in body["error"]
    assert headers["x-repro-source"] == "rejected"


def test_malformed_json_is_400():
    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        blob = b"{not json"
        writer.write(
            (
                f"POST /calculator HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(blob)}\r\nConnection: close\r\n\r\n"
            ).encode() + blob
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        return raw

    raw = run_with_server(scenario)
    assert b"400" in raw.split(b"\r\n", 1)[0]
    assert b"not valid JSON" in raw


def test_oversized_body_is_413():
    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            b"POST /calculator HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 99999999\r\nConnection: close\r\n\r\n"
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        return raw

    raw = run_with_server(scenario)
    assert b"413" in raw.split(b"\r\n", 1)[0]


def test_backpressure_returns_429_when_queue_full():
    async def scenario(server, host, port):
        # Jam the admission counter and verify new compute work is shed.
        server._inflight = server.config.max_inflight
        try:
            return await http_call(
                host, port, "POST", "/calculator", {**CALC_BODY, "seed": 999}
            )
        finally:
            server._inflight = 0

    status, body, headers, _ = run_with_server(scenario)
    assert status == 429
    assert "retry" in body["error"]
    assert headers["x-repro-source"] == "rejected"


def test_keep_alive_serves_multiple_requests_per_connection():
    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        req = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        )
        statuses = []
        for _ in range(3):
            writer.write(req)
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            statuses.append(int(head.split(b" ", 2)[1]))
            length = int(
                [line for line in head.split(b"\r\n")
                 if line.lower().startswith(b"content-length")][0].split(b":")[1]
            )
            await reader.readexactly(length)
        writer.close()
        return statuses

    assert run_with_server(scenario) == [200, 200, 200]


def test_metrics_reflect_bus_events():
    """/metrics is fed by RequestEnd/BatchExecuted events on the PR 1 bus."""

    async def scenario(server, host, port):
        await http_call(host, port, "POST", "/calculator", CALC_BODY)
        await http_call(host, port, "POST", "/calculator", CALC_BODY)
        await http_call(
            host, port, "POST", "/screen",
            {"cohort": 6, "prevalence": 0.05, "seed": 2},
        )
        await http_call(host, port, "POST", "/calculator", {"cohort": 99})
        status, metrics, _, _ = await http_call(host, port, "GET", "/metrics")
        return status, metrics

    # A serial context runs the screen's lattice on the engine plane.
    status, metrics = run_with_server(
        scenario, ServeConfig(port=0, workers=2, compute_threads=2, engine_mode="serial")
    )
    assert status == 200
    calc = metrics["endpoints"]["/calculator"]
    assert calc["requests"] == 3
    assert calc["by_source"] == {"computed": 1, "cache": 1, "rejected": 1}
    assert calc["by_status"] == {"200": 2, "400": 1}
    assert calc["latency"]["count"] == 3
    assert calc["latency"]["p95_ms"] >= calc["latency"]["p50_ms"]
    screen = metrics["endpoints"]["/screen"]
    assert screen["requests"] == 1
    # the /screen job ran on the shared engine context → engine counters moved
    assert metrics["engine"]["jobs"] > 0
    assert set(metrics["engine"]) == {"jobs", "tasks", "job_wall_s"}
    assert metrics["result_cache"]["hits"] == 1
    assert metrics["session_registry"]["active"] == 0


@pytest.mark.parametrize("field, value, message", [
    ("max_sessions", 0, "max_sessions must be >= 1"),
    ("session_ttl_s", 0.0, "session_ttl_s must be > 0"),
    ("session_ttl_s", -5.0, "session_ttl_s must be > 0"),
    ("flight_capacity", 0, "flight_capacity must be positive"),
    ("slow_threshold_s", -1.0, "slow_threshold_s must be >= 0"),
    ("engine_mode", "gpu", "mode must be one of"),
])
def test_serve_config_refuses_what_the_server_cannot_run(field, value, message):
    with pytest.raises(ValueError, match=message):
        ServeConfig(**{field: value})

"""The live-object registries behind ``/sessions`` and ``/campaigns``.

Everything here goes through :class:`~repro.serve.app.ReproServer` over
HTTP: idle expiry by the server's own sweep, the per-kind limits, and
``/metrics`` over a fixed history of both kinds.
"""

import asyncio
import json
import re
import time

from repro.serve.app import ServeConfig

from tests.serve.serve_utils import http_call, run_with_server
from tests.serve.test_metrics_prometheus import http_text

SESSION = {"cohort": 8, "prevalence": 0.1, "seed": 3}
CAMPAIGN = {"sites": 3, "cohort": 6, "rounds": 2, "budget": 2, "seed": 1}


def _config(**overrides):
    return ServeConfig(port=0, workers=2, compute_threads=2, **overrides)


def test_idle_sessions_and_campaigns_expire():
    """The sweep closes both kinds, counts them, and posts their events."""

    async def scenario(server, host, port):
        _, session, _, _ = await http_call(host, port, "POST", "/sessions", SESSION)
        _, campaign, _, _ = await http_call(host, port, "POST", "/campaigns", CAMPAIGN)
        deadline = time.monotonic() + 10.0
        while True:
            _, metrics, _, _ = await http_call(host, port, "GET", "/metrics")
            if (metrics["session_registry"]["expired"]
                    and metrics["campaign_registry"]["expired"]):
                break
            assert time.monotonic() < deadline, metrics
            await asyncio.sleep(0.1)
        _, events, _, _ = await http_call(
            host, port, "GET", "/debug/events?kind=session_event"
        )
        _, text, _ = await http_text(host, port, "GET", "/metrics?format=prometheus")
        gone = [
            (await http_call(host, port, "GET", path))[0]
            for path in (f"/sessions/{session['session_id']}",
                         f"/campaigns/{campaign['campaign_id']}")
        ]
        return session["session_id"], campaign["campaign_id"], metrics, events, text, gone

    sid, cid, metrics, events, text, gone = run_with_server(
        scenario, _config(session_ttl_s=0.05)
    )
    expired = {e["action"]: e["session_id"] for e in events["events"]
               if e["action"] in ("expired", "campaign_expired")}
    assert expired == {"expired": sid, "campaign_expired": cid}
    for key, limit_key in (("session_registry", "max_sessions"),
                           ("campaign_registry", "max_campaigns")):
        assert metrics[key] == {"active": 0, limit_key: 64, "ttl_s": 0.05,
                                "created": 1, "expired": 1, "closed": 0}
    assert metrics["sessions"] == {"campaign_created": 1, "campaign_expired": 1,
                                   "created": 1, "expired": 1}
    assert 'repro_serve_session_events_total{action="expired"} 1' in text
    assert 'repro_serve_session_events_total{action="campaign_expired"} 1' in text
    assert gone == [404, 404]


def test_campaign_limit_is_503():
    async def scenario(server, host, port):
        first = await http_call(host, port, "POST", "/campaigns", CAMPAIGN)
        second = await http_call(host, port, "POST", "/campaigns", {**CAMPAIGN, "seed": 2})
        _, metrics, _, _ = await http_call(host, port, "GET", "/metrics")
        return first, second, metrics

    first, second, metrics = run_with_server(scenario, _config(max_sessions=1))
    assert first[0] == 201
    assert second[0] == 503
    assert "campaign limit" in second[1]["error"]
    assert metrics["campaign_registry"]["active"] == 1
    assert metrics["campaign_registry"]["created"] == 1
    assert metrics["endpoints"]["/campaigns"]["by_status"] == {"201": 1, "503": 1}


def test_session_and_campaign_limits_are_separate():
    """One live session does not count against the campaign limit."""

    async def scenario(server, host, port):
        session = await http_call(host, port, "POST", "/sessions", SESSION)
        campaign = await http_call(host, port, "POST", "/campaigns", CAMPAIGN)
        return session[0], campaign[0]

    assert run_with_server(scenario, _config(max_sessions=1)) == (201, 201)


#: Wall-clock readings: their values move from run to run.
_WALL_KEYS = ("uptime_s", "job_wall_s")
_WALL_FAMILY = re.compile(r"_seconds|_ms|_gc_collections|_rss_")


def _normalise_json(doc):
    if isinstance(doc, dict):
        return {
            key: ("*" if key in _WALL_KEYS
                  else {"count": value["count"]} if key == "latency"
                  else _normalise_json(value))
            for key, value in doc.items()
        }
    if isinstance(doc, list):
        return [_normalise_json(v) for v in doc]
    return doc


def _normalise_prometheus(text):
    lines = []
    for line in text.splitlines():
        if not line.startswith("#") and _WALL_FAMILY.search(line.split("{")[0].split(" ")[0]):
            line = line.rsplit(" ", 1)[0] + " *"
        lines.append(line)
    return "\n".join(lines)


def _fixed_history():
    """Both kinds through their whole lifecycle, a limit hit, a miss."""

    async def scenario(server, host, port):
        _, doc, _, _ = await http_call(host, port, "POST", "/sessions", SESSION)
        sid = doc["session_id"]
        await http_call(host, port, "POST", "/sessions", {**SESSION, "seed": 4})
        _, proposal, _, _ = await http_call(host, port, "GET", f"/sessions/{sid}/next-pool")
        await http_call(host, port, "POST", f"/sessions/{sid}/results",
                        {"outcomes": [False] * len(proposal["pools"])})
        await http_call(host, port, "GET", f"/sessions/{sid}")
        await http_call(host, port, "DELETE", f"/sessions/{sid}")
        await http_call(host, port, "GET", f"/sessions/{sid}")
        _, doc, _, _ = await http_call(host, port, "POST", "/campaigns", CAMPAIGN)
        cid = doc["campaign_id"]
        await http_call(host, port, "POST", "/campaigns", {**CAMPAIGN, "seed": 2})
        await http_call(host, port, "POST", f"/campaigns/{cid}/round")
        await http_call(host, port, "GET", f"/campaigns/{cid}")
        await http_call(host, port, "DELETE", f"/campaigns/{cid}")
        await http_call(host, port, "DELETE", f"/campaigns/{cid}")
        _, _, _, raw = await http_call(host, port, "GET", "/metrics")
        _, text, _ = await http_text(host, port, "GET", "/metrics?format=prometheus")
        return raw, text

    raw, text = run_with_server(scenario, _config(max_sessions=1))
    return (json.dumps(_normalise_json(json.loads(raw)), sort_keys=True),
            _normalise_prometheus(text))


def test_metrics_are_byte_stable_over_a_fixed_history():
    first_json, first_text = _fixed_history()
    second_json, second_text = _fixed_history()
    assert first_json == second_json
    assert first_text == second_text
    doc = json.loads(first_json)
    assert doc["session_registry"] == {"active": 0, "max_sessions": 1, "ttl_s": 900.0,
                                       "created": 1, "expired": 0, "closed": 1}
    assert doc["campaign_registry"] == {"active": 0, "max_campaigns": 1, "ttl_s": 900.0,
                                        "created": 1, "expired": 0, "closed": 1}
    assert doc["sessions"] == {"campaign_closed": 1, "campaign_created": 1,
                               "closed": 1, "created": 1}
    # Which route a 404 on a live-object id is counted under is left to
    # the run-to-run byte equality above, not pinned here.
    assert {
        name: {status: n for status, n in e["by_status"].items() if status != "404"}
        for name, e in doc["endpoints"].items()
    } == {
        "/campaigns": {"201": 1, "503": 1},
        "/campaigns/{id}": {"200": 2},
        "/campaigns/{id}/round": {"200": 1},
        "/sessions": {"201": 1, "503": 1},
        "/sessions/{id}": {"200": 2},
        "/sessions/{id}/next-pool": {"200": 1},
        "/sessions/{id}/results": {"200": 1},
    }

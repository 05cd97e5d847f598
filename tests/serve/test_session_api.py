"""Interactive session API ≡ batch screen, byte for byte.

A scripted client drives ``POST /sessions`` → ``GET next-pool`` →
``POST results`` with a locally simulated lab that replicates the batch
loop's RNG order exactly (cohort draw, then assay noise, off one
generator).  The final classification must match
:meth:`SBGTSession.run_screen` at the same seed **byte-identically** —
same statuses, bit-equal marginals — because interactive and batch
screens now share :class:`ScreenStepper`.
"""

import json

from repro.engine import Context
from repro.sbgt.session import SBGTSession
from repro.serve.app import ServeConfig
from repro.serve.protocol import ScreenRequest
from repro.simulate.population import make_cohort
from repro.simulate.testing import TestLab
from repro.util.rng import as_rng

from tests.serve.serve_utils import http_call, run_with_server

PARAMS = {"cohort": 10, "prevalence": 0.08, "policy": "bha", "seed": 11}


def _batch_payload(params):
    """Ground truth: the one-shot screen the server's /screen would run."""
    req = ScreenRequest.from_payload(dict(params))
    with Context(mode="threads", parallelism=2) as ctx:
        return req.execute(ctx)


def _replay_through_api(params):
    """Drive the session endpoints with a client-side simulated lab."""

    async def scenario(server, host, port):
        status, doc, _, _ = await http_call(host, port, "POST", "/sessions", params)
        assert status == 201, doc
        sid = doc["session_id"]

        # Replicate the batch loop's RNG order: one generator draws the
        # cohort, then feeds the lab.
        req = ScreenRequest.from_payload(dict(params))
        prior, model, _, _ = req.build()
        gen = as_rng(params["seed"])
        cohort = make_cohort(prior, gen)
        lab = TestLab(model, cohort.truth_mask, gen)

        final = doc
        while not final["done"]:
            status, proposal, _, _ = await http_call(
                host, port, "GET", f"/sessions/{sid}/next-pool"
            )
            assert status == 200, proposal
            outcomes = [lab.run(p["mask"]) for p in proposal["pools"]]
            status, final, _, _ = await http_call(
                host, port, "POST", f"/sessions/{sid}/results",
                {"outcomes": outcomes},
            )
            assert status == 200, final

        status, closed, _, _ = await http_call(
            host, port, "DELETE", f"/sessions/{sid}"
        )
        assert status == 200 and closed["closed"]
        return final, cohort

    return run_with_server(
        scenario, ServeConfig(port=0, workers=2, compute_threads=2)
    )


def test_session_replay_matches_batch_byte_for_byte():
    batch = _batch_payload(PARAMS)
    final, cohort = _replay_through_api(PARAMS)

    assert cohort.truth_mask == batch["truth"]["mask"]
    assert final["classification"]["statuses"] == batch["classification"]["statuses"]
    # Bit-equal marginals: JSON repr round-trips float64 exactly, so the
    # serialized texts must match byte for byte.
    assert json.dumps(final["classification"]["marginals"]) == json.dumps(
        batch["classification"]["marginals"]
    )
    assert final["stages_used"] == batch["summary"]["stages"]
    assert final["num_tests"] == batch["summary"]["tests"]


def test_session_replay_matches_batch_dorfman_policy():
    params = {**PARAMS, "policy": "dorfman-4", "seed": 23, "cohort": 12}
    batch = _batch_payload(params)
    final, _ = _replay_through_api(params)
    assert final["classification"]["statuses"] == batch["classification"]["statuses"]
    assert json.dumps(final["classification"]["marginals"]) == json.dumps(
        batch["classification"]["marginals"]
    )


def test_results_validation_errors():
    async def scenario(server, host, port):
        status, doc, _, _ = await http_call(
            host, port, "POST", "/sessions", PARAMS
        )
        sid = doc["session_id"]
        # outcomes before any proposal
        early = await http_call(
            host, port, "POST", f"/sessions/{sid}/results", {"outcomes": [0]}
        )
        await http_call(host, port, "GET", f"/sessions/{sid}/next-pool")
        wrong_count = await http_call(
            host, port, "POST", f"/sessions/{sid}/results",
            {"outcomes": [0, 1, 0, 1, 0, 1, 0, 1, 0]},
        )
        bad_shape = await http_call(
            host, port, "POST", f"/sessions/{sid}/results", {"outcomes": "yes"}
        )
        missing = await http_call(
            host, port, "POST", "/sessions/zzzz/results", {"outcomes": [0]}
        )
        # Every assay is binary: anything but true/false/0/1 is refused,
        # naming the first bad index, before any update runs.
        _, proposal, _, _ = await http_call(host, port, "GET", f"/sessions/{sid}/next-pool")
        not_binary = [
            await http_call(host, port, "POST", f"/sessions/{sid}/results",
                            {"outcomes": [True, 0, bad, 7]})
            for bad in (2, -3, 0.5, 1e308, float("nan"), 1.0, "1", None)
        ]
        _, after, _, _ = await http_call(host, port, "GET", f"/sessions/{sid}")
        good = await http_call(
            host, port, "POST", f"/sessions/{sid}/results",
            {"outcomes": [0] * len(proposal["pools"])},
        )
        # The hospital scenario's assay reads a log viral load: any finite
        # number is an outcome, a non-number or a non-finite one is not.
        _, doc, _, _ = await http_call(
            host, port, "POST", "/sessions", dict(PARAMS, scenario="hospital")
        )
        hid = doc["session_id"]
        _, proposal, _, _ = await http_call(host, port, "GET", f"/sessions/{hid}/next-pool")
        width = len(proposal["pools"])
        not_load = [
            await http_call(host, port, "POST", f"/sessions/{hid}/results",
                            {"outcomes": [7.5] + [bad] * width})
            for bad in (float("nan"), float("inf"), "1", True, None)
        ]
        load = await http_call(
            host, port, "POST", f"/sessions/{hid}/results", {"outcomes": [7.5] * width}
        )
        return early, wrong_count, bad_shape, missing, not_binary, after, good, not_load, load

    (early, wrong_count, bad_shape, missing, not_binary, after, good,
     not_load, load) = run_with_server(scenario)
    assert early[0] == 400 and "no pools outstanding" in early[1]["error"]
    assert wrong_count[0] == 400 and "expected" in wrong_count[1]["error"]
    assert bad_shape[0] == 400
    assert missing[0] == 404
    for status, doc, _, _ in not_binary:
        assert status == 400 and "outcomes[2]" in doc["error"], doc
    assert after["num_tests"] == 0
    assert good[0] == 200 and good[1]["num_tests"] >= 1, good[1]
    for status, doc, _, _ in not_load:
        assert status == 400 and "outcomes[1]" in doc["error"], doc
    assert load[0] == 200 and load[1]["num_tests"] >= 1, load[1]


def test_session_limit_is_503():
    async def scenario(server, host, port):
        first = await http_call(host, port, "POST", "/sessions", PARAMS)
        second = await http_call(
            host, port, "POST", "/sessions", {**PARAMS, "seed": 99}
        )
        return first, second

    config = ServeConfig(port=0, workers=2, compute_threads=2, max_sessions=1)
    first, second = run_with_server(scenario, config)
    assert first[0] == 201
    assert second[0] == 503
    assert "session limit" in second[1]["error"]


def test_sessions_are_isolated():
    """Two concurrent sessions with different seeds evolve independently."""

    async def scenario(server, host, port):
        _, a, _, _ = await http_call(host, port, "POST", "/sessions", PARAMS)
        _, b, _, _ = await http_call(
            host, port, "POST", "/sessions", {**PARAMS, "seed": 77}
        )
        sa, ga, _, _ = await http_call(
            host, port, "GET", f"/sessions/{a['session_id']}"
        )
        sb, gb, _, _ = await http_call(
            host, port, "GET", f"/sessions/{b['session_id']}"
        )
        assert sa == sb == 200
        return a, b, ga, gb

    a, b, ga, gb = run_with_server(scenario)
    assert a["session_id"] != b["session_id"]
    assert ga["request"]["seed"] == 11 and gb["request"]["seed"] == 77

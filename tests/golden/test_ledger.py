"""Public payloads are byte-identical to the golden ledger, in every executor mode.

Serial recomputes every record; threads recomputes the records whose
result goes through the engine context (the approximate backends and
the calculator never touch it); processes recomputes a small subset of
those, for cost.  A record that moves fails here: rebuild the ledger
with ``tests/golden/rebuild.py`` only for a change meant to move it,
and say which records moved and why.
"""

from __future__ import annotations

import pytest

from repro.engine import Context
from repro.workflows.payloads import POLICY_HELP
from tests.golden.records import RECORDS, load_ledger, payload_sha, record_id, uses_engine

LEDGER = load_ledger()

_ENGINE = [r for r in RECORDS if uses_engine(r)]
#: Process mode pays ~8 ms per job: one record per endpoint that uses the engine.
_PROCESS_SUBSET = [
    next(r for r in _ENGINE if r["endpoint"] == endpoint)
    for endpoint in ("/screen", "/surveil", "/sessions")
] + [next(r for r in _ENGINE if r["body"].get("compact") and "scenario" in r["body"])]

_CASES = (
    [("serial", r) for r in RECORDS]
    + [("threads", r) for r in _ENGINE]
    + [("processes", r) for r in _PROCESS_SUBSET]
)


@pytest.fixture(scope="module")
def contexts():
    """One engine context per executor mode, opened on first use."""
    opened = {}

    def get(mode):
        if mode not in opened:
            opened[mode] = Context(mode=mode, parallelism=2)
        return opened[mode]

    yield get
    for ctx in opened.values():
        ctx.stop()


def test_ledger_covers_every_record():
    assert sorted(LEDGER) == sorted(record_id(r) for r in RECORDS)


def test_every_policy_family_has_a_screen_record():
    """Each spelling family the API advertises is pinned on ``/screen``."""
    families = {spec.split("-")[0] for spec in POLICY_HELP.split(", ")}
    screened = {
        r["body"].get("policy", "bha").split("-")[0] for r in RECORDS if r["endpoint"] == "/screen"
    }
    assert families - screened == set()


@pytest.mark.parametrize(
    "mode,record", _CASES, ids=[f"{mode}:{record_id(r)}" for mode, r in _CASES]
)
def test_payload_matches_ledger(contexts, mode, record):
    assert payload_sha(record, contexts(mode)) == LEDGER[record_id(record)]

"""Public payloads are byte-identical to the golden ledger, in every executor mode.

Serial recomputes every record; threads recomputes the records whose
result goes through the engine context (the approximate backends and
the calculator never touch it); processes recomputes a small subset of
those, for cost.  Each record runs on a context of the parallelism it
was pinned at.  A record that moves fails here: rebuild the ledger
with ``tests/golden/rebuild.py`` only for a change meant to move it,
and say which records moved and why.
"""

from __future__ import annotations

import pytest

from repro.engine import Context
from repro.workflows.payloads import POLICY_HELP
from tests.golden.records import (
    CLI_ARGVS,
    RECORDS,
    cli_id,
    cli_sha,
    cli_uses_engine,
    flag_value,
    load_cli_ledger,
    load_ledger,
    payload_sha,
    record_id,
    uses_engine,
)

LEDGER = load_ledger()
CLI_LEDGER = load_cli_ledger()

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
    """One engine context per executor mode and parallelism, opened on first use."""
    opened = {}

    def get(mode, parallelism):
        if (mode, parallelism) not in opened:
            opened[mode, parallelism] = Context(mode=mode, parallelism=parallelism)
        return opened[mode, parallelism]

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
    assert payload_sha(record, contexts(mode, record["parallelism"])) == LEDGER[record_id(record)]


_CLI_ENGINE = [argv for argv in CLI_ARGVS if cli_uses_engine(argv)]
_CLI_CASES = (
    [(None, argv) for argv in CLI_ARGVS]
    + [("serial", argv) for argv in _CLI_ENGINE]
    + [("processes", _CLI_ENGINE[0])]
)


def test_cli_ledger_covers_every_record():
    assert sorted(CLI_LEDGER) == sorted(cli_id(argv) for argv in CLI_ARGVS)


def test_every_policy_family_has_a_cli_table_on_every_backend():
    families = {spec.split("-")[0] for spec in POLICY_HELP.split(", ")}
    for backend in ("dense", "sparse", "particle"):
        tabled = {
            flag_value(argv, "--policy", "bha").split("-")[0]
            for argv in CLI_ARGVS
            if argv[0] == "screen" and flag_value(argv, "--backend", "dense") == backend
        }
        assert families - tabled == set(), backend


@pytest.mark.parametrize(
    "mode,argv", _CLI_CASES, ids=[f"{mode or 'cli'}:{cli_id(argv)}" for mode, argv in _CLI_CASES]
)
def test_cli_table_matches_ledger(mode, argv):
    assert cli_sha(argv, mode) == CLI_LEDGER[cli_id(argv)]

"""The golden payload ledger: which requests it pins and how a record is hashed.

Each record is a public request body, the parallelism of the engine
context it was pinned on, and the sha256 of the text the server (and
the CLI's ``--json``) would emit for it there, ``dump_payload`` of the
result.  A dense lattice is cut into as many blocks as the context's
parallelism, and a payload's bytes are pinned per block count
(docs/architecture.md), so the parallelism is part of the record.  ``/sessions`` records hash a whole interactive transcript:
the creation snapshot, then every ``next-pool`` proposal and ``results``
document up to the end of the screen, with a client-side lab that draws
the cohort and the assay noise off one generator in the batch loop's
order.

A second section pins the CLI's text tables: each entry is an argv of a
computing verb and the sha256 of what ``repro.cli.main(argv)`` prints to
stdout.

``tests/golden/test_ledger.py`` checks the ledger;
``tests/golden/rebuild.py`` rewrites it and prints the records that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence

from repro.serve.protocol import (
    CalculatorRequest,
    ScreenRequest,
    SessionCreateRequest,
    SurveilRequest,
)
from repro.serve.sessions import ServeSession
from repro.simulate.population import make_cohort
from repro.simulate.testing import TestLab
from repro.util.rng import as_rng
from repro.workflows.payloads import POLICY_HELP, dump_payload

LEDGER_PATH = pathlib.Path(__file__).with_name("ledger.json")

POLICIES = ("bha", "lookahead-2", "infogain", "hybrid", "dorfman-4")

#: The context parallelism a record is pinned at unless it names another.
PARALLELISM = 2


def _bodies() -> List[Dict[str, Any]]:
    """Every ledger record as ``{"endpoint", "body", "parallelism"}``, in ledger order."""
    out: List[Dict[str, Any]] = []

    def add(endpoint: str, body: Dict[str, Any], parallelism: int = PARALLELISM) -> None:
        out.append({"endpoint": endpoint, "body": body, "parallelism": parallelism})

    # /screen: dense at cohort 12, with and without contraction.
    for policy in POLICIES:
        for compact in (False, True):
            for seed in (0, 1, 2):
                add("/screen", {"cohort": 12, "prevalence": 0.06, "policy": policy,
                                "seed": seed, "compact": compact})
    for policy in POLICIES:
        for seed in (3, 4):
            add("/screen", {"cohort": 12, "prevalence": 0.12, "policy": policy, "seed": seed})
    for scenario in ("community", "outbreak", "hospital"):
        for seed in (3, 4):
            add("/screen", {"cohort": 12, "scenario": scenario, "seed": seed, "compact": True})
    add("/screen", {"cohort": 12, "prevalence": 0.1, "seed": 5,
                    "assay": {"assay": "binary", "sensitivity": 0.95, "specificity": 0.99}})
    add("/screen", {"cohort": 12, "prevalence": 0.04, "seed": 6, "assay": {"assay": "perfect"}})
    # /screen: the policy families POLICIES leaves out.  Uncompacted,
    # individual seed 0 takes 16 tests: its last update is the one that
    # checkpoints the engine-plane lineage.
    for policy in ("array-3x4", "individual"):
        for compact in (False, True):
            add("/screen", {"cohort": 12, "prevalence": 0.06, "policy": policy,
                            "seed": 0, "compact": compact})
    # /screen: dense screens past the 16-update lineage checkpoint: 24
    # tests at cohort 18, and 16 single-pool stages on a compacted lattice.
    add("/screen", {"cohort": 18, "prevalence": 0.15, "policy": "individual", "seed": 3})
    add("/screen", {"cohort": 16, "prevalence": 0.2, "policy": "bha", "seed": 1, "compact": True})
    # /screen: the first record's body at 1 and 4 blocks as well.  Its
    # decisions are the same on every block count; its bytes are not.
    for parallelism in (1, 4):
        add("/screen", {"cohort": 12, "prevalence": 0.06, "policy": "bha", "seed": 0,
                        "compact": False}, parallelism)
    # /screen: the approximate backends (sparse is slow past cohort 12).
    for policy in POLICIES:
        for seed in (0, 1):
            add("/screen", {"cohort": 40, "prevalence": 0.03, "policy": policy,
                            "seed": seed, "backend": "particle"})
            add("/screen", {"cohort": 10, "prevalence": 0.06, "policy": policy,
                            "seed": seed, "backend": "sparse"})
    add("/screen", {"cohort": 12, "prevalence": 0.05, "seed": 7, "compact": True,
                    "backend": "sparse"})
    # /screen: sparse on a scenario's unequal risks, where a seed state
    # sums three or more different logits (the order of that sum shows).
    for seed in (1, 3):
        add("/screen", {"cohort": 10, "scenario": "outbreak", "seed": seed, "backend": "sparse"})
    # /screen: sparse past 64 bits -- the rank-limited seed, object-dtype
    # pool masks and (compact) column projection.  Seeds 0, 2, 13 and 128
    # take 4, 12, 19 and 38 tests uncompacted (perf/corpus.json's labels).
    for compact in (False, True):
        for seed in (0, 2, 13, 128):
            add("/screen", {"cohort": 120, "prevalence": 0.02, "seed": seed,
                            "compact": compact, "backend": "sparse"})

    # /calculator (always context-free).
    for policy, backend in (("bha", "dense"), ("lookahead-2", "dense"), ("infogain", "dense"),
                            ("dorfman-4", "dense"), ("bha", "sparse"), ("bha", "particle")):
        add("/calculator", {"cohort": 8, "prevalences": [0.02, 0.1], "replications": 3,
                            "policy": policy, "seed": 1, "backend": backend})
    for policy in POLICIES:
        add("/calculator", {"cohort": 10, "prevalences": [0.01, 0.05, 0.15], "replications": 4,
                            "policy": policy, "seed": 2})

    # /surveil, household fleets included.
    small = {"sites": 4, "cohort": 9, "rounds": 3, "budget": 3}
    for allocator in ("thompson", "uniform", "greedy", "greedy-20"):
        for seed in (0, 1):
            add("/surveil", {**small, "allocator": allocator, "seed": seed})
        add("/surveil", {**small, "allocator": allocator, "seed": 2, "fleet": "household"})
    for fleet in ("epidemic", "household"):
        add("/surveil", {**small, "fleet": fleet, "seed": 3, "policy": "lookahead-2"})
    add("/surveil", {**small, "seed": 4, "assay": {"assay": "dilution"}})
    add("/surveil", {**small, "seed": 5, "backend": "particle"})
    for seed in range(6, 12):
        add("/surveil", {"sites": 6, "cohort": 10, "rounds": 4, "budget": 6, "seed": seed})
    for seed in range(6, 10):
        add("/surveil", {**small, "cohort": 12, "fleet": "household", "seed": seed})

    # /sessions: one interactive transcript per backend.
    add("/sessions", {"cohort": 10, "prevalence": 0.08, "seed": 11})
    add("/sessions", {"cohort": 10, "prevalence": 0.08, "seed": 12, "compact": True,
                      "policy": "lookahead-2"})
    add("/sessions", {"cohort": 10, "prevalence": 0.08, "seed": 11, "backend": "sparse"})
    add("/sessions", {"cohort": 96, "prevalence": 0.04, "seed": 13, "compact": True,
                      "backend": "sparse"})
    add("/sessions", {"cohort": 24, "prevalence": 0.05, "seed": 11, "backend": "particle"})
    return out


RECORDS = _bodies()


def record_id(record: Dict[str, Any]) -> str:
    """A stable, readable name for a record (the test id and the ledger key)."""
    rid = record["endpoint"] + " " + json.dumps(record["body"], sort_keys=True)
    if record["parallelism"] != PARALLELISM:
        rid += f" @ parallelism {record['parallelism']}"
    return rid


def uses_engine(record: Dict[str, Any]) -> bool:
    """Whether the record's result depends on the engine context it runs on."""
    return record["endpoint"] in ("/screen", "/sessions", "/surveil") and (
        record["body"].get("backend", "dense") == "dense"
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _transcript(ctx, body: Dict[str, Any]) -> str:
    """The documents an interactive client reads over a whole screen."""
    request = SessionCreateRequest.from_payload(body)
    live = ServeSession("transcript", request, ctx)
    try:
        docs = [live.snapshot()]
        prior, model, _, _ = request.build()
        gen = as_rng(request.seed)
        lab = TestLab(model, make_cohort(prior, gen).truth_mask, gen)
        while not live.stepper.done:
            proposal = live.proposal_payload()
            docs.append(proposal)
            if not proposal["pools"]:
                break
            docs.append(live.results([lab.run(p["mask"]) for p in proposal["pools"]]))
    finally:
        live.close()
    for doc in docs:
        doc.pop("session_id", None)  # random per session
    return "".join(dump_payload(doc) for doc in docs)


def payload_text(record: Dict[str, Any], ctx: Optional[Any]) -> str:
    """What the endpoint would emit for the record's body on *ctx*."""
    endpoint, body = record["endpoint"], record["body"]
    if endpoint == "/screen":
        return dump_payload(ScreenRequest.from_payload(body).execute(ctx))
    if endpoint == "/calculator":
        return dump_payload(CalculatorRequest.from_payload(body).execute())
    if endpoint == "/surveil":
        return dump_payload(SurveilRequest.from_payload(body).execute(ctx))
    if endpoint == "/sessions":
        return _transcript(ctx, body)
    raise ValueError(f"unknown endpoint {endpoint!r}")


def payload_sha(record: Dict[str, Any], ctx: Optional[Any]) -> str:
    return _sha(payload_text(record, ctx))


def load_ledger() -> Dict[str, str]:
    """``record_id -> sha256`` as committed."""
    with open(LEDGER_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {record_id(r): r["sha256"] for r in doc["records"]}


# ----------------------------------------------------------------------
# the CLI text tables
# ----------------------------------------------------------------------
def _cli_argvs() -> List[List[str]]:
    """Every CLI-table record's argv, in ledger order."""
    out: List[List[str]] = []
    # screen: every advertised policy family on every backend.
    for backend, cohort in (("dense", "8"), ("sparse", "8"), ("particle", "8")):
        for policy in POLICY_HELP.split(", "):
            for seed in ("0", "1"):
                out.append(["screen", "--cohort", cohort, "--prevalence", "0.15",
                            "--policy", policy, "--seed", seed, "--backend", backend])
    for backend, policy in (("dense", "bha"), ("dense", "individual"), ("sparse", "bha")):
        out.append(["screen", "--cohort", "10", "--prevalence", "0.1", "--policy", policy,
                    "--seed", "2", "--compact", "--backend", backend])
    out.append(["screen", "--cohort", "12", "--scenario", "outbreak", "--seed", "3"])
    out.append(["screen", "--cohort", "10", "--scenario", "community", "--seed", "4",
                "--backend", "sparse"])
    out.append(["screen", "--cohort", "10", "--prevalence", "0.1", "--seed", "5",
                "--assay", "perfect"])
    out.append(["screen", "--cohort", "10", "--prevalence", "0.1", "--seed", "6",
                "--assay", "binary", "--sensitivity", "0.95", "--specificity", "0.99"])
    # The stage budget runs out with individual 4 undetermined at a
    # marginal above one half.
    out.append(["screen", "--cohort", "8", "--prevalence", "0.15", "--seed", "3",
                "--max-stages", "3"])
    # calculator
    out.append(["calculator", "--cohort", "8", "--prevalences", "0.02", "0.1",
                "--replications", "3", "--seed", "1"])
    out.append(["calculator", "--cohort", "10", "--prevalences", "0.05", "0.2",
                "--replications", "2", "--policy", "dorfman-4", "--backend", "sparse"])
    out.append(["calculator", "--cohort", "8", "--prevalences", "0.01", "0.3",
                "--replications", "2", "--assay", "binary", "--seed", "2"])
    # surveil
    out.append(["surveil", "--sites", "3", "--cohort", "6", "--rounds", "2", "--budget", "2",
                "--seed", "1"])
    out.append(["surveil", "--sites", "3", "--cohort", "9", "--rounds", "2", "--budget", "3",
                "--fleet", "household", "--allocator", "uniform", "--seed", "2"])
    out.append(["surveil", "--sites", "4", "--cohort", "8", "--rounds", "2", "--budget", "3",
                "--backend", "particle", "--seed", "3"])
    for argv in out:
        if argv[0] != "calculator":
            argv += ["--workers", "2"]
    return out


CLI_ARGVS = _cli_argvs()


def cli_id(argv: Sequence[str]) -> str:
    """A CLI record's name (the test id and the ledger key)."""
    return "repro " + " ".join(argv)


def flag_value(argv: Sequence[str], flag: str, default: str) -> str:
    """The value *argv* gives *flag*, or *default*."""
    return argv[argv.index(flag) + 1] if flag in argv else default


def cli_uses_engine(argv: Sequence[str]) -> bool:
    """Whether the verb's table depends on the engine context it runs on."""
    return argv[0] in ("screen", "surveil") and flag_value(argv, "--backend", "dense") == "dense"


def cli_text(argv: Sequence[str], mode: Optional[str] = None) -> str:
    """What ``repro.cli.main(argv)`` prints to stdout.

    With *mode*, the engine context the verb opens runs on that executor
    instead of the one the CLI picks.
    """
    from repro import cli
    from repro.engine import Context

    buf = io.StringIO()
    with contextlib.ExitStack() as stack:
        if mode is not None:
            original = cli.Context
            cli.Context = lambda **kw: Context(**{**kw, "mode": mode})
            stack.callback(setattr, cli, "Context", original)
        stack.enter_context(contextlib.redirect_stdout(buf))
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"{cli_id(argv)} exited {rc}")
    return buf.getvalue()


def cli_sha(argv: Sequence[str], mode: Optional[str] = None) -> str:
    return _sha(cli_text(argv, mode))


def load_cli_ledger() -> Dict[str, str]:
    """``cli_id -> sha256`` of the CLI section as committed."""
    with open(LEDGER_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {cli_id(r["argv"]): r["sha256"] for r in doc.get("cli", [])}

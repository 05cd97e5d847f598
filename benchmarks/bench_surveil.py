#!/usr/bin/env python3
"""Multi-site surveillance allocator benchmark (repro.surveil).

The headline claim of the surveillance layer: on a heterogeneous fleet
(a few hot sites hidden among cold ones), Thompson-sampling budget
allocation finds substantially more cases than the uniform status quo
with the same test budget.  :func:`compare_allocators` runs the same
seeded fleet under every allocator; the asserted gate
(:func:`test_thompson_beats_uniform`) is the CI acceptance criterion —
Thompson must find at least **1.2×** the cases uniform does.
:func:`test_site_screen_kernel_calls` is the other CI gate: a count of
the lattice-wide kernel calls one context-free site screen makes per
stage.

Usage::

    python benchmarks/bench_surveil.py                # default fleet
    python benchmarks/bench_surveil.py --sites 16 --rounds 20
    PYTHONPATH=src python -m pytest benchmarks/bench_surveil.py -q
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from typing import Any, Dict, Optional

import pytest

from repro.engine import Context
from repro.metrics.reporting import format_table
from repro.sbgt import distributed_lattice
from repro.surveil import (
    Campaign,
    CampaignConfig,
    SiteScreenJob,
    heterogeneous_fleet,
    run_site_screen,
    site_screen_seed,
)

#: The seeded acceptance scenario: 12 sites spanning 0.4%–15% prevalence.
FLEET_SITES = 12
FLEET_KWARGS: Dict[str, Any] = {"cohort_size": 10, "seed": 0, "low": 0.004, "high": 0.15}
ROUNDS = 12
BUDGET = 6
GATE_RATIO = 1.2

ALLOCATORS = ("thompson", "uniform", "greedy")


def run_campaign(
    allocator: str,
    num_sites: int = FLEET_SITES,
    rounds: int = ROUNDS,
    budget: int = BUDGET,
    seed: int = 0,
    ctx=None,
) -> Dict[str, Any]:
    """One allocator's campaign on the seeded heterogeneous fleet."""
    fleet = heterogeneous_fleet(num_sites, **{**FLEET_KWARGS, "seed": seed})
    config = CampaignConfig(
        rounds=rounds, budget=budget, allocator=allocator, seed=seed, max_stages=40
    )
    t0 = time.perf_counter()
    result = Campaign(fleet, config, ctx=ctx).run()
    wall_s = time.perf_counter() - t0
    summary = result.summary()
    return {
        "allocator": allocator,
        "cases": summary["total_cases"],
        "tests": summary["total_tests"],
        "screens": summary["total_screens"],
        "cases_per_screen": round(summary["cases_per_screen"], 3),
        "tests_per_case": round(summary["tests_per_case"], 2),
        "wall_s": round(wall_s, 2),
    }


def compare_allocators(
    num_sites: int = FLEET_SITES,
    rounds: int = ROUNDS,
    budget: int = BUDGET,
    seed: int = 0,
    ctx=None,
) -> Dict[str, Any]:
    """Every allocator on the same fleet, plus the headline ratio."""
    rows = {
        name: run_campaign(name, num_sites, rounds, budget, seed, ctx=ctx)
        for name in ALLOCATORS
    }
    uniform_cases = max(rows["uniform"]["cases"], 1)
    return {
        "fleet": {
            "sites": num_sites,
            "rounds": rounds,
            "budget": budget,
            "seed": seed,
            **{k: v for k, v in FLEET_KWARGS.items() if k != "seed"},
        },
        "allocators": rows,
        "thompson_vs_uniform_cases": round(
            rows["thompson"]["cases"] / uniform_cases, 2
        ),
        "gate_ratio": GATE_RATIO,
    }


# ---------------------------------------------------------------------------
# asserted acceptance gates (run by CI)
# ---------------------------------------------------------------------------
def test_thompson_beats_uniform():
    """The bandit gate: ≥1.2× the cases of uniform allocation, seeded."""
    doc = compare_allocators()
    ratio = doc["thompson_vs_uniform_cases"]
    thompson, uniform = doc["allocators"]["thompson"], doc["allocators"]["uniform"]
    print(
        f"\nthompson {thompson['cases']} cases vs uniform {uniform['cases']} "
        f"({ratio:.2f}x, gate {GATE_RATIO}x) on {FLEET_SITES} sites"
    )
    assert ratio >= GATE_RATIO, doc


def test_site_screen_kernel_calls(monkeypatch):
    """The context-free screen's call budget — a count, so it cannot flake.

    The lattice is one driver-resident cube block.  Per BHA stage (one
    pool each): one ``block_update`` and one ``block_summed_mass_marginals``
    in the update, whose marginals ``classify()`` and the policy read,
    and one ``block_down_set_partial`` for the selection; per screen,
    one ``block_mass_marginals`` fold that normalises the prior and
    reads its marginals.
    """
    site = 5  # the hottest of the seeded fleet (15 %): an 8-stage screen
    spec = heterogeneous_fleet(FLEET_SITES, **FLEET_KWARGS)[site]
    job = SiteScreenJob(spec=spec, round_index=2, site_index=site, draw=0,
                        seed=site_screen_seed(0, 2, site, 0))
    run_site_screen(job)  # warm
    t0 = time.perf_counter()
    outcome = run_site_screen(job)
    wall_ms = 1e3 * (time.perf_counter() - t0)

    calls: Counter = Counter()

    def count(name):
        kernel = getattr(distributed_lattice, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(distributed_lattice, name, counting)

    for name in ("block_update", "block_summed_mass_marginals", "block_down_set_partial",
                 "block_mass_marginals"):
        count(name)
    assert run_site_screen(job) == outcome
    stages = outcome.stages_used
    print(
        f"\nsite screen (cohort {spec.cohort_size}, bha): {stages} stages, "
        f"{wall_ms:.2f} ms; calls {dict(calls)}"
    )
    assert stages == outcome.tests_used == 8
    assert calls == {
        "block_update": stages,
        "block_summed_mass_marginals": stages,
        "block_down_set_partial": stages,
        "block_mass_marginals": 1,  # the prior's
    }


@pytest.mark.parametrize("backend", ["dense", "sparse", "particle"])
def test_campaign_backend_smoke(backend):
    """Every posterior backend drives a short campaign to completion."""
    fleet = heterogeneous_fleet(6, cohort_size=8, seed=1)
    config = CampaignConfig(
        rounds=3, budget=4, allocator="thompson", backend=backend, seed=1,
        max_stages=30,
    )
    result = Campaign(fleet, config).run()
    assert result.total_screens == 12
    assert result.summary()["backend"] == backend


def test_engine_campaign_matches_serial():
    """Round screens through the engine job graph reproduce serial runs."""
    serial = run_campaign("thompson", num_sites=6, rounds=4, budget=4, seed=2)
    with Context(mode="threads", parallelism=4) as ctx:
        parallel = run_campaign("thompson", num_sites=6, rounds=4, budget=4,
                                seed=2, ctx=ctx)
    for key in ("cases", "tests", "screens"):
        assert parallel[key] == serial[key]


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=FLEET_SITES)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--budget", type=int, default=BUDGET)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="engine parallelism (0 = serial in-process)")
    args = parser.parse_args(argv)

    if args.workers > 0:
        with Context(mode="threads", parallelism=args.workers) as ctx:
            doc = compare_allocators(args.sites, args.rounds, args.budget,
                                     args.seed, ctx=ctx)
    else:
        doc = compare_allocators(args.sites, args.rounds, args.budget, args.seed)

    rows = [
        [r["allocator"], r["cases"], r["screens"], r["tests"],
         f"{r['cases_per_screen']:.3f}", f"{r['tests_per_case']:.1f}",
         f"{r['wall_s']:.2f}"]
        for r in doc["allocators"].values()
    ]
    print(format_table(
        ["allocator", "cases", "screens", "tests", "cases/screen",
         "tests/case", "wall (s)"],
        rows,
        title=f"Surveil allocators ({args.sites} sites, {args.rounds} rounds, "
              f"budget {args.budget})",
    ))
    ratio = doc["thompson_vs_uniform_cases"]
    verdict = "PASS" if ratio >= GATE_RATIO else "FAIL"
    print(f"\nthompson vs uniform: {ratio:.2f}x cases (gate {GATE_RATIO}x) [{verdict}]")
    return 0 if ratio >= GATE_RATIO else 1


if __name__ == "__main__":
    sys.exit(main())

"""The multi-site campaign orchestrator (the round loop).

Each round the :class:`Campaign`:

1. posts :class:`~repro.surveil.events.RoundStart`;
2. asks its :class:`~repro.surveil.allocator.BudgetAllocator` to split
   the round's screen budget across sites, sampling from the sites'
   current Beta prevalence posteriors, and posts
   :class:`~repro.surveil.events.BudgetAllocated`;
3. expands the allocation into picklable :class:`SiteScreenJob` work
   units and runs them as **one engine job graph** — sites are the
   parallel dimension (`ctx.parallelize(jobs).map(run_site_screen)`),
   with a serial fallback when no context is given;
4. folds every :class:`SiteScreenOutcome` back into the owning site's
   :class:`~repro.surveil.beliefs.SiteBelief` (posting
   :class:`~repro.surveil.events.SiteScreened` per screen), then
   re-learns the fleet hyperprior (Sakata-style empirical Bayes).

Everything runs under a trace scope and the ``surveil`` phase, so a
campaign renders as one correlated timeline in the Chrome exporter,
allocation decisions interleaved with the screens they caused.

:func:`run_site_screen` is a **module-level task function** operating
only on its frozen job dataclass — nothing driver-resident (campaign,
allocator, context) ships to workers, and every screen re-seeds its own
generator from ``(campaign seed, round, site, draw)``, so results are
reproducible and independent of scheduling order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.tracing import ensure_trace
from repro.obs.tracer import trace_phase
from repro.sbgt.config import SBGTConfig
from repro.surveil.allocator import make_allocator
from repro.surveil.beliefs import BetaHyperprior, SiteBelief, learn_hyperprior
from repro.surveil.events import (
    PHASE_SURVEIL,
    BudgetAllocated,
    RoundEnd,
    RoundStart,
    SiteScreened,
)
from repro.surveil.sites import SiteSpec
from repro.util.validation import check_positive_int
from repro.workflows.classify import run_screen, run_screen_from_space

__all__ = [
    "CampaignConfig",
    "Campaign",
    "CampaignResult",
    "RoundSummary",
    "SiteScreenJob",
    "SiteScreenOutcome",
    "run_site_screen",
    "site_screen_seed",
]

_BACKENDS = ("dense", "sparse", "particle")


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-level knobs (everything but the fleet itself)."""

    rounds: int = 12
    budget: int = 8
    allocator: str = "thompson"
    policy: str = "bha"
    backend: str = "dense"
    max_stages: int = 40
    seed: int = 0
    learn_hyperprior: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.rounds, "rounds")
        check_positive_int(self.budget, "budget")
        check_positive_int(self.max_stages, "max_stages")
        if self.backend not in _BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r} (choose from {_BACKENDS})")
        make_allocator(self.allocator)  # validate the spelling early


def site_screen_seed(base_seed: int, round_index: int, site_index: int, draw: int) -> int:
    """The deterministic per-screen seed.

    Derived through :class:`numpy.random.SeedSequence`, so screens are
    statistically independent across rounds, sites, and repeat draws
    while the whole campaign replays from one base seed.
    """
    ss = np.random.SeedSequence([base_seed, round_index, site_index, draw])
    return int(ss.generate_state(1)[0])


# ----------------------------------------------------------------------
# the work unit (ships to engine tasks — plain picklable data only)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SiteScreenJob:
    """One allocated screen: everything a task needs to rebuild the site."""

    spec: SiteSpec
    round_index: int
    site_index: int
    draw: int
    seed: int
    policy: str = "bha"
    backend: str = "dense"
    max_stages: int = 40


@dataclass(frozen=True)
class SiteScreenOutcome:
    """What one screen sends back to the driver (plain picklable data)."""

    site_index: int
    round_index: int
    draw: int
    prevalence: float
    n_screened: int
    tests_used: int
    stages_used: int
    cases_found: int
    true_positives: int
    accuracy: float


def run_site_screen(job: SiteScreenJob) -> SiteScreenOutcome:
    """Execute one site-screen work unit (runs inside an engine task).

    The clearance threshold adapts to the day's prevalence (a decade
    below it, capped at 1%) so a cold site is never "cleared" by its
    prior alone — the allocator only learns from screens that actually
    spent tests.  ``cases_found`` counts *correctly detected* positives
    (confusion-matrix TP), which is the quantity the bandit maximises.
    """
    from repro.workflows.payloads import make_policy

    gen = np.random.default_rng(job.seed)
    prior, model, correlated = job.spec.build_day(job.round_index, gen)
    prevalence = job.spec.day_prevalence(job.round_index)
    config = SBGTConfig(
        backend=job.backend,
        max_stages=job.max_stages,
        negative_threshold=min(0.01, max(prevalence / 10.0, 1e-5)),
    )
    policy = make_policy(job.policy)
    if correlated:
        result = run_screen_from_space(prior, model, policy, rng=gen, config=config)
    else:
        result = run_screen(prior, model, policy, rng=gen, config=config)
    return SiteScreenOutcome(
        site_index=job.site_index,
        round_index=job.round_index,
        draw=job.draw,
        prevalence=float(prevalence),
        n_screened=result.cohort.n_items,
        tests_used=result.efficiency.num_tests,
        stages_used=result.stages_used,
        cases_found=result.confusion.true_positive,
        true_positives=result.cohort.n_positive,
        accuracy=float(result.accuracy),
    )


# ----------------------------------------------------------------------
# driver-side state
# ----------------------------------------------------------------------
class SiteState:
    """One site's running totals and prevalence belief (driver-resident)."""

    __slots__ = (
        "spec", "belief", "screens", "tests", "cases", "true_positives",
        "last_prevalence",
    )

    def __init__(self, spec: SiteSpec) -> None:
        self.spec = spec
        self.belief = SiteBelief()
        self.screens = 0
        self.tests = 0
        self.cases = 0
        self.true_positives = 0
        self.last_prevalence = spec.day_prevalence(0)

    def snapshot(self, hyper: BetaHyperprior) -> Dict[str, Any]:
        alpha, beta = self.belief.posterior(hyper)
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "prevalence": float(self.last_prevalence),
            "screens": self.screens,
            "tests": self.tests,
            "cases": self.cases,
            "true_positives": self.true_positives,
            "belief": {
                "alpha": float(alpha),
                "beta": float(beta),
                "mean": float(alpha / (alpha + beta)),
            },
        }


@dataclass(frozen=True)
class RoundSummary:
    """One finished round's totals."""

    index: int
    allocations: Tuple[int, ...]
    screens: int
    tests: int
    cases: int
    true_positives: int
    wall_s: float


@dataclass
class CampaignResult:
    """A finished (or in-progress) campaign's outcomes."""

    config: CampaignConfig
    sites: List[Dict[str, Any]]
    rounds: List[RoundSummary]
    hyperprior: BetaHyperprior

    @property
    def total_screens(self) -> int:
        return sum(r.screens for r in self.rounds)

    @property
    def total_tests(self) -> int:
        return sum(r.tests for r in self.rounds)

    @property
    def total_cases(self) -> int:
        return sum(r.cases for r in self.rounds)

    @property
    def total_true_positives(self) -> int:
        return sum(r.true_positives for r in self.rounds)

    def round_rows(self) -> List[Dict[str, Any]]:
        """JSON-ready per-round rows (wall times excluded: not replayable)."""
        return [
            {
                "round": r.index,
                "allocations": list(r.allocations),
                "screens": r.screens,
                "tests": r.tests,
                "cases": r.cases,
                "true_positives": r.true_positives,
            }
            for r in self.rounds
        ]

    def summary(self) -> Dict[str, Any]:
        screens = self.total_screens
        cases = self.total_cases
        return {
            "sites": len(self.sites),
            "rounds": len(self.rounds),
            "budget": self.config.budget,
            "allocator": self.config.allocator,
            "policy": self.config.policy,
            "backend": self.config.backend,
            "total_screens": screens,
            "total_tests": self.total_tests,
            "total_cases": cases,
            "total_true_positives": self.total_true_positives,
            "cases_per_screen": cases / screens if screens else 0.0,
            "tests_per_case": self.total_tests / cases if cases else float(self.total_tests),
            "hyperprior": {
                "alpha": float(self.hyperprior.alpha),
                "beta": float(self.hyperprior.beta),
                "mean": float(self.hyperprior.mean),
            },
        }


class Campaign:
    """K sites, one shared budget, a round-based allocate/screen/learn loop.

    Driver-resident: holds the allocator's RNG stream, the site beliefs,
    and (optionally) the engine context — never ship a campaign into a
    task.  With a context, each round's screens run as one parallel job
    graph; without one, they run serially in-process (same results, the
    per-screen seeding does not depend on execution placement).
    """

    def __init__(
        self,
        sites: Sequence[SiteSpec],
        config: Optional[CampaignConfig] = None,
        ctx=None,
        bus=None,
    ) -> None:
        if not sites:
            raise ValueError("a campaign needs at least one site")
        self.sites: Tuple[SiteSpec, ...] = tuple(sites)
        self.config = config or CampaignConfig()
        if self.config.backend != "dense":
            for spec in self.sites:
                if spec.kind == "household":
                    raise ValueError(
                        "household sites need the dense backend (their correlated "
                        "prior is a full state space)"
                    )
        self.ctx = ctx
        self.bus = bus if bus is not None else (ctx.event_bus if ctx is not None else None)
        self.allocator = make_allocator(self.config.allocator)
        self.hyperprior = BetaHyperprior()
        self.states = [SiteState(spec) for spec in self.sites]
        self.rounds: List[RoundSummary] = []
        self._alloc_rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """The next round to run (== rounds completed so far)."""
        return len(self.rounds)

    @property
    def finished(self) -> bool:
        return len(self.rounds) >= self.config.rounds

    def _post(self, event) -> None:
        if self.bus is not None:
            self.bus.post(event)

    def _execute(self, jobs: List[SiteScreenJob]) -> List[SiteScreenOutcome]:
        if not jobs:
            return []
        if self.ctx is None:
            return [run_site_screen(job) for job in jobs]
        # One job graph per round: every allocated screen is a partition.
        return (
            self.ctx.parallelize(jobs, len(jobs)).map(run_site_screen).collect()
        )

    # ------------------------------------------------------------------
    def run_round(self) -> RoundSummary:
        """Allocate, screen, and fold back one round."""
        if self.finished:
            raise RuntimeError(
                f"campaign already ran its {self.config.rounds} rounds"
            )
        r = len(self.rounds)
        cfg = self.config
        t0 = time.perf_counter()
        with ensure_trace(name=f"surveil-round-{r}"), trace_phase(
            PHASE_SURVEIL, f"round-{r}"
        ):
            self._post(RoundStart(round_index=r, budget=cfg.budget, num_sites=len(self.sites)))
            posteriors = [s.belief.posterior(self.hyperprior) for s in self.states]
            allocations = self.allocator.allocate(posteriors, cfg.budget, self._alloc_rng)
            self._post(
                BudgetAllocated(
                    round_index=r,
                    allocator=self.allocator.name,
                    allocations=tuple(allocations),
                )
            )
            jobs = [
                SiteScreenJob(
                    spec=self.sites[k],
                    round_index=r,
                    site_index=k,
                    draw=j,
                    seed=site_screen_seed(cfg.seed, r, k, j),
                    policy=cfg.policy,
                    backend=cfg.backend,
                    max_stages=cfg.max_stages,
                )
                for k, n_screens in enumerate(allocations)
                for j in range(n_screens)
            ]
            outcomes = sorted(
                self._execute(jobs), key=lambda o: (o.site_index, o.draw)
            )
            screens = tests = cases = truths = 0
            for o in outcomes:
                state = self.states[o.site_index]
                state.belief.observe(o.cases_found, o.n_screened)
                state.screens += 1
                state.tests += o.tests_used
                state.cases += o.cases_found
                state.true_positives += o.true_positives
                state.last_prevalence = o.prevalence
                screens += 1
                tests += o.tests_used
                cases += o.cases_found
                truths += o.true_positives
                self._post(
                    SiteScreened(
                        round_index=r,
                        site_index=o.site_index,
                        site=state.spec.name,
                        tests_used=o.tests_used,
                        cases_found=o.cases_found,
                        n_screened=o.n_screened,
                        belief_mean=state.belief.mean(self.hyperprior),
                    )
                )
            if cfg.learn_hyperprior:
                self.hyperprior = learn_hyperprior(
                    [s.belief for s in self.states], default=self.hyperprior
                )
            wall_s = time.perf_counter() - t0
            summary = RoundSummary(
                index=r,
                allocations=tuple(allocations),
                screens=screens,
                tests=tests,
                cases=cases,
                true_positives=truths,
                wall_s=wall_s,
            )
            self._post(
                RoundEnd(
                    round_index=r, screens=screens, tests=tests, cases=cases, wall_s=wall_s
                )
            )
        self.rounds.append(summary)
        return summary

    def run(self) -> CampaignResult:
        """Run every remaining round and return the campaign result."""
        with ensure_trace(name="surveil-campaign"):
            while not self.finished:
                self.run_round()
        return self.result()

    # ------------------------------------------------------------------
    def result(self) -> CampaignResult:
        return CampaignResult(
            config=self.config,
            sites=[s.snapshot(self.hyperprior) for s in self.states],
            rounds=list(self.rounds),
            hyperprior=self.hyperprior,
        )

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready progress view (what the campaign session API serves)."""
        res = self.result()
        return {
            "summary": res.summary(),
            "sites": res.sites,
            "rounds": res.round_rows(),
            "next_round": self.round_index,
            "finished": self.finished,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Campaign(sites={len(self.sites)}, allocator={self.allocator.name!r}, "
            f"round={self.round_index}/{self.config.rounds})"
        )

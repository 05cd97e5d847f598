"""Population-scale screening: many cohorts, engine-parallel.

A city-scale program doesn't build one 10,000-person lattice — it splits
the population into pooling cohorts (the regime where exact Bayesian
inference is cheap) and runs the cohorts concurrently.  This workflow
expresses exactly that on the dataflow engine: one task per cohort, each
task running a full context-free screen, results reduced to program-level
statistics.  It is the second axis of SBGT's scalability (R4 covers the
within-lattice axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.bayes.dilution import ResponseModel
from repro.bayes.priors import PriorSpec
from repro.engine.context import Context
from repro.halving.policy import SelectionPolicy
from repro.sbgt.config import SBGTConfig
from repro.simulate.population import Cohort
from repro.util.rng import RngLike, as_rng
from repro.workflows.classify import ScreenResult, run_screen

__all__ = ["PopulationResult", "screen_population", "split_into_cohorts"]


def split_into_cohorts(
    risks: np.ndarray, cohort_size: int, sort_by_risk: bool = True
) -> List[PriorSpec]:
    """Partition a population's risk vector into pooling cohorts.

    With ``sort_by_risk`` the population is risk-sorted first, so cohorts
    are internally homogeneous — mixing one high-risk person into a
    low-risk pool wrecks that pool's halving efficiency, which is why
    real programs stratify.
    """
    risks = np.asarray(risks, dtype=np.float64)
    if risks.ndim != 1 or risks.size == 0:
        raise ValueError("risks must be a non-empty 1-D array")
    if cohort_size < 1:
        raise ValueError("cohort_size must be >= 1")
    if sort_by_risk:
        risks = np.sort(risks)
    return [
        PriorSpec(risks[lo : lo + cohort_size])
        for lo in range(0, risks.size, cohort_size)
    ]


@dataclass
class PopulationResult:
    """Aggregated outcome of a whole program run."""

    screens: List[ScreenResult]

    @property
    def total_individuals(self) -> int:
        return sum(s.cohort.n_items for s in self.screens)

    @property
    def total_tests(self) -> int:
        return sum(s.efficiency.num_tests for s in self.screens)

    @property
    def tests_per_individual(self) -> float:
        n = self.total_individuals
        return self.total_tests / n if n else 0.0

    @property
    def max_stages(self) -> int:
        """Program turnaround: cohorts run concurrently, so the slowest
        cohort's stage count is the wall-clock bound."""
        return max((s.stages_used for s in self.screens), default=0)

    @property
    def overall_accuracy(self) -> float:
        total = self.total_individuals
        if total == 0:
            return 1.0
        correct = sum(
            s.confusion.true_positive + s.confusion.true_negative for s in self.screens
        )
        return correct / total

    def found_positives(self) -> List[int]:
        """Global indices of individuals called positive (cohort-major)."""
        out = []
        offset = 0
        for s in self.screens:
            out.extend(offset + i for i in s.report.positives())
            offset += s.cohort.n_items
        return out


def screen_population(
    ctx: Context,
    priors: Sequence[PriorSpec],
    model: ResponseModel,
    policy_factory: Callable[[], SelectionPolicy],
    rng: RngLike = None,
    cohorts: Optional[Sequence[Cohort]] = None,
    max_stages: int = 60,
    positive_threshold: float = 0.99,
    negative_threshold: float = 0.01,
) -> PopulationResult:
    """Screen every cohort as one engine task; collect program stats.

    Each cohort gets an independent RNG stream derived from *rng*, so
    the program is reproducible regardless of task scheduling order.
    """
    if not priors:
        raise ValueError("at least one cohort prior required")
    base = as_rng(rng)
    seeds = [int(s) for s in base.integers(0, 2**63 - 1, size=len(priors))]
    if cohorts is None:
        cohort_list: List[Optional[Cohort]] = [None] * len(priors)
    else:
        if len(cohorts) != len(priors):
            raise ValueError("cohorts must match priors one-to-one")
        cohort_list = list(cohorts)

    jobs = list(zip(priors, seeds, cohort_list))
    config = SBGTConfig(
        max_stages=max_stages,
        positive_threshold=positive_threshold,
        negative_threshold=negative_threshold,
    )

    def run_one(job) -> ScreenResult:
        prior, seed, cohort = job
        return run_screen(prior, model, policy_factory(), rng=seed, cohort=cohort, config=config)

    results = ctx.parallelize(jobs, min(len(jobs), ctx.default_parallelism * 4)).map(
        run_one
    ).collect()
    return PopulationResult(screens=results)

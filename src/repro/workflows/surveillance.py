"""Longitudinal surveillance campaigns over an epidemic wave.

Runs one screen per day while prevalence follows an epidemic trajectory,
accumulating the cost/quality series the surveillance experiments plot:
tests per individual and accuracy as functions of the day's prevalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.bayes.dilution import ResponseModel
from repro.halving.policy import SelectionPolicy
from repro.sbgt.config import SBGTConfig
from repro.simulate.epidemic import sir_prevalence, surveillance_priors
from repro.util.rng import RngLike, as_rng
from repro.workflows.classify import ScreenResult, run_screen

__all__ = ["DayOutcome", "SurveillanceResult", "run_surveillance"]


@dataclass(frozen=True)
class DayOutcome:
    """One day's screen in the campaign."""

    day: int
    prevalence: float
    result: ScreenResult


@dataclass
class SurveillanceResult:
    """A whole campaign's outcomes plus aggregate series."""

    days: List[DayOutcome] = field(default_factory=list)

    @property
    def total_tests(self) -> int:
        return sum(d.result.efficiency.num_tests for d in self.days)

    @property
    def total_individuals(self) -> int:
        return sum(d.result.cohort.n_items for d in self.days)

    @property
    def overall_tests_per_individual(self) -> float:
        n = self.total_individuals
        return self.total_tests / n if n else 0.0

    def prevalence_series(self) -> np.ndarray:
        return np.array([d.prevalence for d in self.days])

    def tests_per_individual_series(self) -> np.ndarray:
        return np.array([d.result.tests_per_individual for d in self.days])

    def accuracy_series(self) -> np.ndarray:
        return np.array([d.result.accuracy for d in self.days])

    def detected_positives(self) -> int:
        return sum(len(d.result.report.positives()) for d in self.days)

    def true_positives_present(self) -> int:
        return sum(d.result.cohort.n_positive for d in self.days)

    def estimated_prevalence_series(
        self, model, window: int = 1, **estimate_kwargs
    ) -> List:
        """Per-day prevalence posteriors inferred from the pooled outcomes.

        The campaign's own testing traffic is the data: each day's
        evidence log supplies ``(pool_size, outcome)`` pairs to
        :func:`repro.bayes.prevalence.estimate_prevalence`.  ``window``
        pools the trailing days' outcomes (smoother, slightly lagged).
        Binary response models only.
        """
        from repro.bayes.prevalence import estimate_prevalence

        posteriors = []
        for i in range(len(self.days)):
            outcomes = []
            for d in self.days[max(0, i - window + 1) : i + 1]:
                outcomes.extend(
                    (r.pool_size, r.outcome)
                    for r in d.result.posterior.log.records
                )
            posteriors.append(
                estimate_prevalence(outcomes, model, **estimate_kwargs)
                if outcomes
                else None
            )
        return posteriors


def run_surveillance(
    model: ResponseModel,
    policy_factory: Callable[[], SelectionPolicy],
    days: int = 30,
    cohort_size: int = 12,
    rng: RngLike = None,
    prevalence: Optional[np.ndarray] = None,
    dispersion: float = 8.0,
    max_stages: int = 50,
    backend: str = "dense",
) -> SurveillanceResult:
    """Screen a fresh cohort each day of an epidemic wave.

    ``policy_factory`` builds a fresh policy per day (policies may carry
    per-screen state).  Pass an explicit *prevalence* series to pin the
    epidemic; the default is the standard SIR wave.  ``backend`` picks
    the per-day posterior representation (``"dense"`` exact driver-resident,
    ``"sparse"`` / ``"particle"`` approximate driver-local), so
    epidemic-wave campaigns can run cohorts past the dense ``2^N`` wall.
    """
    gen = as_rng(rng)
    if prevalence is None:
        prevalence = sir_prevalence(days)
    config = SBGTConfig(backend=backend, max_stages=max_stages)
    campaign = SurveillanceResult()
    for day, prior in surveillance_priors(prevalence, cohort_size, dispersion, gen):
        result = run_screen(prior, model, policy_factory(), rng=gen, config=config)
        campaign.days.append(
            DayOutcome(day=day, prevalence=float(prevalence[day]), result=result)
        )
    return campaign

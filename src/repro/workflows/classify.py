"""The screen entry points that need no engine context.

One *screen* classifies a cohort: at each stage the policy proposes
pools, the virtual lab assays them, the posterior conditions on the
outcomes, and individuals crossing the marginal thresholds are settled.
The loop ends when everyone is classified or the stage budget runs out.

Each function here builds a context-free
:class:`~repro.sbgt.session.SBGTSession` and runs its one stage loop
(:class:`~repro.sbgt.stepper.ScreenStepper`); the dense lattice is then
one driver-resident block.  Every caller gets a :class:`ScreenResult`,
so accuracy/efficiency experiments compare backends row for row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.bayes.dilution import ResponseModel
from repro.bayes.posterior import ClassificationReport
from repro.bayes.priors import PriorSpec
from repro.halving.policy import SelectionPolicy
from repro.metrics.classification import ConfusionCounts
from repro.metrics.efficiency import EfficiencyReport
from repro.simulate.population import Cohort
from repro.util.rng import RngLike, as_rng

if TYPE_CHECKING:  # pragma: no cover - repro.sbgt imports this module back
    from repro.sbgt.config import SBGTConfig
    from repro.sbgt.session import SBGTSession

__all__ = [
    "ScreenResult",
    "run_screen",
    "run_screen_from_space",
]


@dataclass
class ScreenResult:
    """Everything a finished screen produced."""

    cohort: Cohort
    report: ClassificationReport
    confusion: ConfusionCounts
    efficiency: EfficiencyReport
    posterior: "SBGTSession"
    stages_used: int
    exhausted_budget: bool

    @property
    def accuracy(self) -> float:
        return self.confusion.accuracy

    @property
    def tests_per_individual(self) -> float:
        return self.efficiency.tests_per_individual

    def summary(self) -> dict:
        """Flat dict of the headline numbers (for tables / JSON dumps)."""
        return {
            "n_items": self.cohort.n_items,
            "true_positives_present": self.cohort.n_positive,
            "called_positive": len(self.report.positives()),
            "undetermined": len(self.report.undetermined()),
            "tests": self.efficiency.num_tests,
            "tests_per_individual": self.tests_per_individual,
            "stages": self.stages_used,
            "accuracy": self.accuracy,
            "sensitivity": self.confusion.sensitivity,
            "specificity": self.confusion.specificity,
            "exhausted_budget": self.exhausted_budget,
        }


def run_screen(
    prior: PriorSpec,
    model: ResponseModel,
    policy: SelectionPolicy,
    rng: RngLike = None,
    cohort: Optional[Cohort] = None,
    config: Optional["SBGTConfig"] = None,
) -> ScreenResult:
    """Run one complete sequential screen, without a context.

    Parameters
    ----------
    prior, model, policy:
        The Bayesian model and the test-selection rule.
    rng:
        Drives truth draw (when *cohort* is None) and assay noise.
    cohort:
        Fixed ground truth; drawn from the prior when omitted.
    config:
        The screen's :class:`~repro.sbgt.config.SBGTConfig` (thresholds,
        stage budget, pruning, entropy tracking, and ``backend``).
        ``"dense"`` is the exact lattice in one driver-resident block
        (no engine job) — the path every site screen of a ``surveil``
        campaign takes; ``"sparse"`` / ``"particle"`` are the
        approximate backends that lift cohorts past the dense ``2^N``
        wall.
    """
    # Deferred import: repro.sbgt reaches back into workflows.
    from repro.sbgt.session import SBGTSession

    if cohort is not None and cohort.prior is not prior and cohort.prior.n_items != prior.n_items:
        raise ValueError("cohort does not match the prior's cohort size")
    session = SBGTSession(None, prior, model, config)
    return session.run_screen(policy, rng=rng, cohort=cohort)


def run_screen_from_space(
    space,
    model: ResponseModel,
    policy: SelectionPolicy,
    rng: RngLike = None,
    truth_mask: Optional[int] = None,
    config: Optional["SBGTConfig"] = None,
) -> ScreenResult:
    """Run a screen whose prior is an arbitrary state space.

    This is the entry point for *correlated* priors (e.g.
    :class:`~repro.bayes.correlated.HouseholdPrior`), which cannot be
    expressed as a per-individual risk vector.  Ground truth is drawn
    from the prior distribution itself when *truth_mask* is omitted.
    The returned result's ``cohort.prior`` carries the prior's
    *marginals* (a summary — the full dependence structure lives in the
    posterior's state space).  The lattice is *space* itself in one
    driver-resident block, so *config*'s screen settings apply and its
    backend and lattice-shape fields are not read.
    """
    from repro.sbgt.config import SBGTConfig
    from repro.sbgt.distributed_lattice import DistributedLattice
    from repro.sbgt.session import SBGTSession
    from repro.simulate.population import draw_truth_from_space

    gen = as_rng(rng)
    if truth_mask is None:
        truth_mask = draw_truth_from_space(space, gen)
    lattice = DistributedLattice.from_state_space(None, space)
    marginal_prior = PriorSpec(np.clip(lattice.marginals(), 1e-9, 1 - 1e-9))
    cohort = Cohort(prior=marginal_prior, truth_mask=int(truth_mask))
    session = SBGTSession._on_lattice(
        None, marginal_prior, model, config or SBGTConfig(), lattice
    )
    return session.run_screen(policy, rng=gen, cohort=cohort)

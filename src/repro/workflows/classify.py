"""The sequential classification loop (serial reference driver).

One *screen* classifies a cohort: at each stage the policy proposes
pools, the virtual lab assays them, the posterior conditions on the
outcomes, and individuals crossing the marginal thresholds are settled.
The loop ends when everyone is classified or the stage budget runs out.

:class:`SBGTSession` (:mod:`repro.sbgt.session`) runs the same protocol
against the distributed lattice; both produce a :class:`ScreenResult`,
so every accuracy/efficiency experiment can compare them row for row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bayes.dilution import ResponseModel
from repro.bayes.posterior import ClassificationReport, Posterior
from repro.bayes.priors import PriorSpec
from repro.halving.policy import SelectionPolicy
from repro.metrics.classification import ConfusionCounts, evaluate_classification
from repro.metrics.efficiency import EfficiencyReport, efficiency_report
from repro.simulate.population import Cohort, make_cohort
from repro.simulate.testing import TestLab
from repro.util.rng import RngLike, as_rng
from repro.workflows.options import ScreenOptions

__all__ = [
    "ScreenResult",
    "run_screen",
    "run_screen_from_space",
    "screen_with_backend",
]


@dataclass
class ScreenResult:
    """Everything a finished screen produced."""

    cohort: Cohort
    report: ClassificationReport
    confusion: ConfusionCounts
    efficiency: EfficiencyReport
    posterior: Posterior
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


def _loss_final_report(marginals: np.ndarray, stopping_rule) -> ClassificationReport:
    """Terminal report when a loss-based rule fires: every individual
    gets their loss-optimal call (no undetermined left)."""
    from repro.bayes.posterior import Classification

    calls = stopping_rule.classify_now(marginals)
    statuses = tuple(
        Classification.POSITIVE if positive else Classification.NEGATIVE
        for positive in calls
    )
    return ClassificationReport(marginals=np.asarray(marginals), statuses=statuses)


def _run_stages(
    posterior: Posterior,
    cohort: Cohort,
    lab: TestLab,
    policy: SelectionPolicy,
    opts: ScreenOptions,
    stopping_rule=None,
) -> ScreenResult:
    """The stage loop both serial drivers share, over a ready posterior."""
    policy.reset()
    stages_used = 0
    exhausted = False
    report = posterior.classify(opts.positive_threshold, opts.negative_threshold)
    while not report.all_classified:
        if stopping_rule is not None and stopping_rule.should_stop(report.marginals):
            report = _loss_final_report(report.marginals, stopping_rule)
            break
        if stages_used >= opts.max_stages:
            exhausted = True
            break
        pools = policy.select(posterior, report.undetermined_mask())
        if not pools:
            raise RuntimeError(f"policy {policy.name} proposed no pools")
        posterior.begin_stage()
        stages_used += 1
        for pool in pools:
            posterior.update(pool, lab.run(pool))
        if opts.prune_epsilon > 0.0:
            posterior.prune(opts.prune_epsilon)
        report = posterior.classify(opts.positive_threshold, opts.negative_threshold)

    confusion = evaluate_classification(report, cohort.truth_mask)
    eff = efficiency_report(
        cohort.n_items, lab.stats.num_tests, stages_used, lab.stats.num_samples_used
    )
    return ScreenResult(
        cohort=cohort,
        report=report,
        confusion=confusion,
        efficiency=eff,
        posterior=posterior,
        stages_used=stages_used,
        exhausted_budget=exhausted,
    )


def run_screen(
    prior: PriorSpec,
    model: ResponseModel,
    policy: SelectionPolicy,
    rng: RngLike = None,
    cohort: Optional[Cohort] = None,
    options: Optional[ScreenOptions] = None,
    stopping_rule=None,
) -> ScreenResult:
    """Run one complete sequential screen.

    Parameters
    ----------
    prior, model, policy:
        The Bayesian model and the test-selection rule.
    rng:
        Drives truth draw (when *cohort* is None) and assay noise.
    cohort:
        Fixed ground truth; drawn from the prior when omitted.
    options:
        The :class:`~repro.workflows.options.ScreenOptions` bundle
        (thresholds, stage budget, pruning, entropy tracking).
    stopping_rule:
        Optional :class:`~repro.halving.stopping.LossBasedStopping`:
        the screen also ends when residual misclassification risk drops
        below the cost of testing further, with every individual given
        their loss-optimal call (no undetermined statuses).
    """
    opts = options or ScreenOptions()
    gen = as_rng(rng)
    if cohort is None:
        cohort = make_cohort(prior, gen)
    elif cohort.prior is not prior and cohort.prior.n_items != prior.n_items:
        raise ValueError("cohort does not match the prior's cohort size")

    lab = TestLab(model, cohort.truth_mask, gen)
    posterior = Posterior.from_prior(prior, model, track_entropy=opts.track_entropy)
    return _run_stages(posterior, cohort, lab, policy, opts, stopping_rule)


def screen_with_backend(
    prior: PriorSpec,
    model: ResponseModel,
    policy: SelectionPolicy,
    backend: str = "dense",
    rng: RngLike = None,
    cohort: Optional[Cohort] = None,
    options: Optional[ScreenOptions] = None,
    stopping_rule=None,
) -> ScreenResult:
    """Run one screen on the named posterior backend.

    ``"dense"`` runs the serial exact reference (:func:`run_screen` on a
    :class:`~repro.bayes.posterior.Posterior`, no engine job): a stage
    costs one lattice-wide ``logsumexp``, one ``intersect_count`` and one
    marginal sweep that ``classify()`` and the policy share — the path
    every site screen of a ``surveil`` campaign takes;
    ``"sparse"`` / ``"particle"`` run the same protocol against a
    driver-local approximate :class:`~repro.sbgt.session.SBGTSession`
    (no engine context needed), which is what lifts cohorts past the
    dense ``2^N`` wall.  All callers that fan screens out over backends
    — the calculator, longitudinal surveillance, multi-site campaigns —
    dispatch through here so backend semantics stay in one place.
    """
    if backend == "dense":
        return run_screen(
            prior, model, policy, rng=rng, cohort=cohort,
            options=options, stopping_rule=stopping_rule,
        )
    # Deferred import: repro.sbgt reaches back into workflows for payloads.
    from repro.sbgt.config import SBGTConfig
    from repro.sbgt.session import SBGTSession

    session = SBGTSession(None, prior, model, SBGTConfig(backend=backend))
    try:
        return session.run_screen(
            policy, rng=rng, cohort=cohort,
            stopping_rule=stopping_rule, options=options,
        )
    finally:
        session.close()


def run_screen_from_space(
    space,
    model: ResponseModel,
    policy: SelectionPolicy,
    rng: RngLike = None,
    truth_mask: Optional[int] = None,
    options: Optional[ScreenOptions] = None,
) -> ScreenResult:
    """Run a screen whose prior is an arbitrary state space.

    This is the entry point for *correlated* priors (e.g.
    :class:`~repro.bayes.correlated.HouseholdPrior`), which cannot be
    expressed as a per-individual risk vector.  Ground truth is drawn
    from the prior distribution itself when *truth_mask* is omitted.
    The returned result's ``cohort.prior`` carries the prior's
    *marginals* (a summary — the full dependence structure lives in the
    posterior's state space).
    """
    from repro.lattice.ops import marginals as space_marginals
    from repro.simulate.population import draw_truth_from_space

    opts = options or ScreenOptions()
    gen = as_rng(rng)
    if truth_mask is None:
        truth_mask = draw_truth_from_space(space, gen)
    marginal_prior = PriorSpec(np.clip(space_marginals(space), 1e-9, 1 - 1e-9))
    cohort = Cohort(prior=marginal_prior, truth_mask=int(truth_mask))

    lab = TestLab(model, cohort.truth_mask, gen)
    posterior = Posterior(space.copy(), model, track_entropy=opts.track_entropy)
    return _run_stages(posterior, cohort, lab, policy, opts)

"""Per-site prevalence beliefs and the learned Beta hyperprior.

Each site's screening history reduces to two sufficient statistics —
individuals screened and cases found — which, under a Beta hyperprior,
give a conjugate ``Beta(alpha0 + cases, beta0 + negatives)`` posterior
over that site's prevalence.  These posteriors are exactly what the
Thompson allocator samples from.

The hyperprior itself is *learned* across the fleet (Sakata-style
empirical Bayes): after each round, a method-of-moments fit to the
observed site rates yields the ``Beta(alpha0, beta0)`` that shrinks
thinly-observed sites toward the fleet-wide prevalence profile.  A
homogeneous fleet learns a concentrated hyperprior (strong shrinkage);
a heterogeneous one learns a diffuse hyperprior, so single-site
evidence dominates quickly — the behaviour a bandit needs to separate
hot sites from cold ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["BetaHyperprior", "SiteBelief", "learn_hyperprior"]


@dataclass(frozen=True)
class BetaHyperprior:
    """``Beta(alpha, beta)`` shared prior over site prevalences.

    The default matches the repo's community scenario: mean ≈ 3% with a
    light pseudo-count, so a handful of screens can move any site.
    """

    alpha: float = 1.0
    beta: float = 30.0

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("hyperprior pseudo-counts must be positive")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


@dataclass
class SiteBelief:
    """Sufficient statistics of one site's screening history."""

    cases: int = 0
    screened: int = 0

    def observe(self, cases: int, screened: int) -> None:
        """Fold one screen's outcome (``cases`` positives among ``screened``)."""
        if screened < 0 or not 0 <= cases or cases > max(screened, 0):
            raise ValueError(f"invalid screen outcome ({cases}/{screened})")
        self.cases += int(cases)
        self.screened += int(screened)

    def posterior(self, hyper: BetaHyperprior) -> Tuple[float, float]:
        """``(alpha, beta)`` of the conjugate prevalence posterior."""
        return (
            hyper.alpha + self.cases,
            hyper.beta + (self.screened - self.cases),
        )

    def mean(self, hyper: BetaHyperprior) -> float:
        """Posterior-mean prevalence under *hyper*."""
        a, b = self.posterior(hyper)
        return a / (a + b)


def learn_hyperprior(
    beliefs: Sequence[SiteBelief],
    default: BetaHyperprior = BetaHyperprior(),
    min_pseudo: float = 2.0,
    max_pseudo: float = 200.0,
) -> BetaHyperprior:
    """Method-of-moments Beta fit to the observed site rates.

    Sites with no screening history yet contribute nothing; with fewer
    than two observed sites (or degenerate variance) the *default*
    carries over unchanged.  The fitted total pseudo-count is clamped to
    ``[min_pseudo, max_pseudo]`` so one lucky round can neither wash out
    the prior nor freeze it.
    """
    observed = [b for b in beliefs if b.screened > 0]
    if len(observed) < 2:
        return default
    # Lightly smoothed per-site rates (Jeffreys-ish) keep all-negative
    # sites off the 0.0 boundary where moments degenerate.
    rates = np.array([(b.cases + 0.5) / (b.screened + 1.0) for b in observed])
    mean = float(np.clip(rates.mean(), 1e-4, 1 - 1e-4))
    var = float(rates.var())
    if var <= 1e-12:
        return default
    # Beta moments: var = m(1-m)/(nu+1)  =>  nu = m(1-m)/var - 1.
    nu = mean * (1.0 - mean) / var - 1.0
    nu = float(np.clip(nu, min_pseudo, max_pseudo))
    return BetaHyperprior(alpha=mean * nu, beta=(1.0 - mean) * nu)

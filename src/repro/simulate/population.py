"""Cohort generation: priors plus hidden ground truth.

A :class:`Cohort` bundles what the tester knows (the :class:`PriorSpec`)
with what only the simulator knows (the true infection mask).  Truth is
drawn from the prior by default — the well-specified regime — but can be
drawn from *different* risks to study prior misspecification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bayes.priors import PriorSpec
from repro.util.bits import indices_from_mask
from repro.util.rng import RngLike, as_rng

__all__ = ["Cohort", "draw_truth", "make_cohort"]


def draw_truth(risks: np.ndarray, rng: RngLike = None) -> int:
    """Draw a ground-truth infection mask from per-individual risks."""
    gen = as_rng(rng)
    bits = gen.random(len(risks)) < np.asarray(risks, dtype=np.float64)
    mask = 0
    for i in np.flatnonzero(bits):
        mask |= 1 << int(i)
    return mask


@dataclass(frozen=True)
class Cohort:
    """A testing cohort: the prior belief and the hidden truth."""

    prior: PriorSpec
    truth_mask: int

    @property
    def n_items(self) -> int:
        return self.prior.n_items

    @property
    def n_positive(self) -> int:
        return bin(self.truth_mask).count("1")

    def positives(self) -> list[int]:
        return indices_from_mask(self.truth_mask)

    def is_positive(self, individual: int) -> bool:
        return bool((self.truth_mask >> individual) & 1)


def draw_truth_from_space(space, rng: RngLike = None) -> int:
    """Draw a ground-truth mask from an arbitrary prior state space.

    Samples one lattice state by its prior probability — the correlated
    analogue of :func:`draw_truth` (which assumes independence).
    """
    gen = as_rng(rng)
    idx = gen.choice(space.size, p=space.probs())
    return int(space.masks[idx])


def make_cohort(
    prior: PriorSpec,
    rng: RngLike = None,
    truth_risks: Optional[np.ndarray] = None,
) -> Cohort:
    """Build a cohort, optionally with misspecified truth risks.

    ``truth_risks`` defaults to the prior's risks (well-specified).  Pass
    a different vector to simulate a tester whose prior is wrong — the
    robustness experiments sweep this gap.
    """
    risks = prior.risks if truth_risks is None else np.asarray(truth_risks, dtype=np.float64)
    if risks.size != prior.n_items:
        raise ValueError("truth_risks length must match the prior")
    return Cohort(prior=prior, truth_mask=draw_truth(risks, rng))

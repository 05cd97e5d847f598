"""Correlated priors: household / cluster infection structure.

The product-Bernoulli prior of :class:`~repro.bayes.priors.PriorSpec`
treats individuals as independent — but transmission clusters: if one
household member is infected, the others probably are too.  Lattice
models carry *arbitrary* distributions over infection states, so this
module builds exactly such priors:

* each household ``h`` is seeded with probability ``intro_prob`` (an
  introduction from the community);
* given an introduction, every member is infected independently with
  probability ``attack_rate`` (conditioned on at least one member
  actually infected — an introduction that infects nobody is no
  introduction);
* without one, nobody in the household is infected.

The resulting prior is exchangeable within a household but strongly
positively correlated — pooling whole households first becomes optimal,
which is the behaviour the household-screening example demonstrates.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.lattice.states import StateSpace
from repro.util.bits import popcount64
from repro.util.numerics import logsumexp
from repro.util.validation import check_positive_int, check_probability

__all__ = ["HouseholdPrior", "pairwise_correlation"]


class HouseholdPrior:
    """Cluster-structured prior over a cohort of households.

    Parameters
    ----------
    household_sizes:
        Members per household, in cohort order (individual ``i`` belongs
        to the household covering index ``i``).  Total must be ≤ 26 for
        dense construction.
    intro_prob:
        Probability a household has a community introduction.
    attack_rate:
        Within-household infection probability given an introduction.
    """

    def __init__(
        self,
        household_sizes: Sequence[int],
        intro_prob: float = 0.05,
        attack_rate: float = 0.5,
    ) -> None:
        sizes = [check_positive_int(s, "household size") for s in household_sizes]
        if not sizes:
            raise ValueError("at least one household required")
        self.household_sizes = sizes
        self.n_items = sum(sizes)
        if self.n_items > 26:
            raise ValueError("dense household prior limited to 26 individuals total")
        self.intro_prob = check_probability(intro_prob, "intro_prob")
        self.attack_rate = check_probability(attack_rate, "attack_rate")
        if not 0.0 < self.intro_prob < 1.0 or not 0.0 < self.attack_rate < 1.0:
            raise ValueError("intro_prob and attack_rate must lie strictly in (0, 1)")
        offsets = [0]
        for s in sizes:
            offsets.append(offsets[-1] + s)
        self._offsets = offsets

    # ------------------------------------------------------------------
    def households(self) -> List[Tuple[int, int]]:
        """(start index, size) per household."""
        return [
            (self._offsets[i], self.household_sizes[i])
            for i in range(len(self.household_sizes))
        ]

    def household_mask(self, h: int) -> int:
        """Bit mask of household *h*'s members."""
        start, size = self.households()[h]
        return ((1 << size) - 1) << start

    def _household_log_prior(self, size: int) -> np.ndarray:
        """Log P(local pattern) over the ``2^size`` patterns of one household.

        P(0) = (1-q) + q·(1-r)^m  (no introduction, or one that fizzled —
        folded together since a fizzled introduction is unobservable);
        P(pattern with k ≥ 1) = q · r^k (1-r)^(m-k) / (1 - (1-r)^m) ·
        (1 - (1-r)^m) = q · r^k (1-r)^(m-k)... the conditioning constant
        cancels, leaving the intuitive form.
        """
        q, r = self.intro_prob, self.attack_rate
        patterns = np.arange(1 << size, dtype=np.uint64)
        k = popcount64(patterns).astype(np.float64)
        with np.errstate(divide="ignore"):
            log_pattern = k * np.log(r) + (size - k) * np.log1p(-r)
        out = np.log(q) + log_pattern
        out[0] = np.logaddexp(np.log1p(-q), np.log(q) + size * np.log1p(-r))
        # Normalise (the fizzle-folding leaves an O(1) constant).
        return out - logsumexp(out)

    def build_dense(self) -> StateSpace:
        """The full cohort lattice with the household-product prior."""
        masks = np.arange(1 << self.n_items, dtype=np.uint64)
        log_probs = np.zeros(masks.size, dtype=np.float64)
        for start, size in self.households():
            local = (masks >> np.uint64(start)) & np.uint64((1 << size) - 1)
            table = self._household_log_prior(size)
            log_probs += table[local.astype(np.int64)]
        log_probs -= logsumexp(log_probs)
        return StateSpace(self.n_items, masks, log_probs)

    def marginal_risk(self) -> float:
        """P(a given individual is infected) under this prior."""
        # P(infected) = q·r regardless of household size (the fizzle fold
        # returns non-infection mass to the zero pattern).
        return self.intro_prob * self.attack_rate

    def draw_truth(self, rng=None) -> int:
        """Sample a ground-truth infection mask from the prior."""
        from repro.util.rng import as_rng

        gen = as_rng(rng)
        mask = 0
        for start, size in self.households():
            if gen.random() < self.intro_prob:
                for j in range(size):
                    if gen.random() < self.attack_rate:
                        mask |= 1 << (start + j)
        return mask


def pairwise_correlation(space: StateSpace, i: int, j: int) -> float:
    """Pearson correlation of infection indicators ``i`` and ``j``."""
    if i == j:
        raise ValueError("need two distinct individuals")
    from repro.util.bits import bit_column

    p = space.probs()
    xi = bit_column(space.masks, i).astype(np.float64)
    xj = bit_column(space.masks, j).astype(np.float64)
    mi, mj = float(p @ xi), float(p @ xj)
    cov = float(p @ (xi * xj)) - mi * mj
    var_i = mi * (1 - mi)
    var_j = mj * (1 - mj)
    if var_i <= 0 or var_j <= 0:
        return 0.0
    return cov / np.sqrt(var_i * var_j)

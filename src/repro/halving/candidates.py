"""Candidate pool generation.

The halving objective is evaluated over a *candidate set* of pools; the
quality/cost trade-off of selection is almost entirely decided here.  The
Biostatistics'22 analysis shows order-respecting pools — prefixes of the
cohort sorted by marginal infection probability — contain near-optimal
halving pools, which keeps the candidate set linear in cohort size
instead of exponential.

All generators produce ``uint64`` pool-mask arrays restricted to the
*eligible* (still-undetermined) individuals, deduplicated, never empty.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional

import numpy as np

from repro.util.bits import as_mask_array, indices_from_mask
from repro.util.rng import RngLike, as_rng
from repro.util.validation import check_positive_int

__all__ = [
    "CandidateGenerator",
    "PrefixCandidates",
    "ExhaustiveCandidates",
    "RandomCandidates",
    "SlidingWindowCandidates",
]


class CandidateGenerator:
    """Produces candidate pool masks for one selection step."""

    def generate(self, marginals: np.ndarray, eligible_mask: int) -> np.ndarray:
        """Return a uint64 array of pool masks (non-empty, deduplicated).

        Parameters
        ----------
        marginals:
            Current posterior marginal infection probability per
            individual (length = cohort size).  Only their order is
            used (ascending, equal values by index), so a caller whose
            posterior is exact passes :func:`repro.util.numerics.tie_key`
            of them and exchangeable individuals order by index.
        eligible_mask:
            Bit mask of individuals still in play; pools must be subsets.
        """
        raise NotImplementedError

    @staticmethod
    def _finalize(masks: List[int]) -> np.ndarray:
        uniq = sorted({int(m) for m in masks if int(m) != 0})
        if not uniq:
            raise ValueError("candidate generator produced no pools")
        # uint64 for cohorts the lattice kernels can vectorise; object
        # (Python-int) masks for the >64-individual backends.
        return as_mask_array(uniq)


class PrefixCandidates(CandidateGenerator):
    """Prefixes of the eligible cohort in marginal order.

    Ascending order groups the *least* likely positives: the pool whose
    probability of being all-negative is nearest 1/2 is then some prefix.
    Descending prefixes are optionally added for the late-screen regime
    where isolating likely positives halves faster.
    """

    def __init__(self, max_pool_size: int = 32, include_descending: bool = True) -> None:
        self.max_pool_size = check_positive_int(max_pool_size, "max_pool_size")
        self.include_descending = bool(include_descending)

    def generate(self, marginals: np.ndarray, eligible_mask: int) -> np.ndarray:
        idx = indices_from_mask(eligible_mask)
        if not idx:
            raise ValueError("no eligible individuals")
        marg = np.asarray(marginals, dtype=np.float64)
        ordered = sorted(idx, key=lambda i: (marg[i], i))
        masks: List[int] = []
        limit = min(self.max_pool_size, len(ordered))
        acc = 0
        for i in ordered[:limit]:
            acc |= 1 << i
            masks.append(acc)
        if self.include_descending:
            acc = 0
            for i in reversed(ordered[-limit:]):
                acc |= 1 << i
                masks.append(acc)
        return self._finalize(masks)


class ExhaustiveCandidates(CandidateGenerator):
    """Every subset of eligible individuals up to ``max_pool_size``.

    Exponential — only for small cohorts and for optimality ground truth
    in tests ("did the cheap generator find the true halving pool?").
    """

    def __init__(self, max_pool_size: int = 4) -> None:
        self.max_pool_size = check_positive_int(max_pool_size, "max_pool_size")

    def generate(self, marginals: np.ndarray, eligible_mask: int) -> np.ndarray:
        idx = indices_from_mask(eligible_mask)
        if not idx:
            raise ValueError("no eligible individuals")
        masks: List[int] = []
        for size in range(1, min(self.max_pool_size, len(idx)) + 1):
            for combo in combinations(idx, size):
                m = 0
                for i in combo:
                    m |= 1 << i
                masks.append(m)
        return self._finalize(masks)


class RandomCandidates(CandidateGenerator):
    """Uniform random pools (a control strategy for ablations)."""

    def __init__(self, count: int = 64, max_pool_size: int = 32, rng: RngLike = None) -> None:
        self.count = check_positive_int(count, "count")
        self.max_pool_size = check_positive_int(max_pool_size, "max_pool_size")
        self._rng = as_rng(rng if rng is not None else 1234)

    def generate(self, marginals: np.ndarray, eligible_mask: int) -> np.ndarray:
        idx = indices_from_mask(eligible_mask)
        if not idx:
            raise ValueError("no eligible individuals")
        masks: List[int] = []
        for _ in range(self.count):
            size = int(self._rng.integers(1, min(self.max_pool_size, len(idx)) + 1))
            chosen = self._rng.choice(len(idx), size=size, replace=False)
            m = 0
            for c in chosen:
                m |= 1 << idx[int(c)]
            masks.append(m)
        return self._finalize(masks)


class SlidingWindowCandidates(CandidateGenerator):
    """Contiguous windows over the marginal-sorted cohort.

    Covers mid-risk bands that pure prefixes straddle; linear count
    (O(n · window sizes)).
    """

    def __init__(self, window_sizes: Optional[List[int]] = None) -> None:
        self.window_sizes = window_sizes or [2, 4, 8, 16]
        if any(w <= 0 for w in self.window_sizes):
            raise ValueError("window sizes must be positive")

    def generate(self, marginals: np.ndarray, eligible_mask: int) -> np.ndarray:
        idx = indices_from_mask(eligible_mask)
        if not idx:
            raise ValueError("no eligible individuals")
        marg = np.asarray(marginals, dtype=np.float64)
        ordered = sorted(idx, key=lambda i: (marg[i], i))
        masks: List[int] = []
        for w in self.window_sizes:
            if w > len(ordered):
                continue
            for start in range(0, len(ordered) - w + 1):
                m = 0
                for i in ordered[start : start + w]:
                    m |= 1 << i
                masks.append(m)
        if not masks:  # every window bigger than the cohort: pool everyone
            m = 0
            for i in ordered:
                m |= 1 << i
            masks.append(m)
        return self._finalize(masks)

"""Selection policies: the pluggable "which pools next?" strategies.

A policy proposes one *stage* of pooled tests given the current belief
and the set of still-undetermined individuals.  ``policy.select(belief,
eligible_mask)`` is the one selection entry point: *belief* is an
:class:`~repro.sbgt.session.SBGTSession` or a bare posterior backend.
Bayesian rules (halving, look-ahead, information gain) read its
marginals and selection statistics; the classical baselines (individual
testing, Dorfman) read at most the marginals — they exist so the
efficiency experiments can reproduce the paper's comparisons.
"""

from __future__ import annotations

from typing import List, Optional

from repro.halving.bha import ordering_key, select_halving_pool
from repro.halving.candidates import CandidateGenerator, PrefixCandidates
from repro.halving.infogain import select_infogain_pool
from repro.halving.lookahead import select_lookahead_pools
from repro.util.bits import indices_from_mask
from repro.util.validation import check_positive_int

__all__ = [
    "SelectionPolicy",
    "BHAPolicy",
    "LookaheadPolicy",
    "InformationGainPolicy",
    "IndividualTestingPolicy",
    "DorfmanPolicy",
    "ArrayTestingPolicy",
]


def _candidate_table(generator: CandidateGenerator, belief, eligible_mask: int):
    """One stage's candidate pools, in the belief's marginal order."""
    return generator.generate(ordering_key(belief, belief.marginals()), eligible_mask)


class SelectionPolicy:
    """Proposes the pooled tests of the next stage."""

    #: Human-readable name used in experiment tables.
    name: str = "policy"

    def reset(self) -> None:
        """Forget any per-screen state (called once per session)."""

    def select(self, belief, eligible_mask: int) -> List[int]:
        """Return pool masks (non-empty subsets of *eligible_mask*)."""
        raise NotImplementedError


class BHAPolicy(SelectionPolicy):
    """One halving-optimal pool per stage (the core sequential rule)."""

    name = "bha"

    def __init__(self, candidates: Optional[CandidateGenerator] = None) -> None:
        self.candidates = candidates or PrefixCandidates()

    def select(self, belief, eligible_mask: int) -> List[int]:
        pools = _candidate_table(self.candidates, belief, eligible_mask)
        return [select_halving_pool(belief, pools)[0]]


class LookaheadPolicy(SelectionPolicy):
    """``depth`` pools per stage via greedy generalized halving.

    Cuts the number of sequential stages roughly by ``depth`` at the cost
    of slightly more tests — the trade-off experiment R6 measures.
    """

    def __init__(
        self, depth: int = 2, candidates: Optional[CandidateGenerator] = None
    ) -> None:
        self.depth = check_positive_int(depth, "depth")
        self.candidates = candidates or PrefixCandidates()
        self.name = f"lookahead-{self.depth}"

    def select(self, belief, eligible_mask: int) -> List[int]:
        pools = _candidate_table(self.candidates, belief, eligible_mask)
        return select_lookahead_pools(belief, pools, self.depth)[0]


class InformationGainPolicy(SelectionPolicy):
    """Pick the pool maximising mutual information with its outcome.

    Needs a binary response model, read off ``belief.model``
    (:func:`repro.halving.infogain.select_infogain_pool` has the rule).
    """

    name = "infogain"

    def __init__(self, candidates: Optional[CandidateGenerator] = None) -> None:
        self.candidates = candidates or PrefixCandidates()

    def select(self, belief, eligible_mask: int) -> List[int]:
        pools = _candidate_table(self.candidates, belief, eligible_mask)
        return [select_infogain_pool(belief, pools, belief.model)[0]]


class IndividualTestingPolicy(SelectionPolicy):
    """No pooling: one singleton test per undetermined individual/stage.

    The universal baseline — its cost is exactly one test per person
    (repeated only when assay noise leaves someone undetermined).
    """

    name = "individual"

    def select(self, posterior, eligible_mask: int) -> List[int]:
        return [1 << i for i in indices_from_mask(eligible_mask)]


class DorfmanPolicy(SelectionPolicy):
    """Classic two-stage Dorfman pooling.

    Stage 1 pools the cohort into fixed-size groups; every member of a
    positive group is then tested individually.  Implemented on top of
    the Bayesian machinery: after stage 1 the posterior has already
    driven members of negative groups below the negative threshold, so
    "retest the positives" is simply "test whoever is still eligible".
    """

    def __init__(self, pool_size: int = 8) -> None:
        self.pool_size = check_positive_int(pool_size, "pool_size")
        self.name = f"dorfman-{self.pool_size}"
        self._stage = 0

    @classmethod
    def optimal_for(cls, prevalence: float, max_pool_size: int = 32) -> "DorfmanPolicy":
        """Dorfman with the cost-minimising pool size for *prevalence*.

        Minimises the classic expected-tests-per-individual of two-stage
        pooling, ``1/m + 1 - (1-p)^m``, by scanning m (the optimum is
        ``≈ 1/√p + 1`` but the exact argmin is cheap).  Above p ≈ 0.3
        no pool size beats individual testing; the smallest pool (2) is
        returned and the caller should compare against individual cost.
        """
        if not 0.0 < prevalence < 1.0:
            raise ValueError("prevalence must be in (0, 1)")
        best_m, best_cost = 2, float("inf")
        for m in range(2, max(3, max_pool_size + 1)):
            cost = 1.0 / m + 1.0 - (1.0 - prevalence) ** m
            if cost < best_cost:
                best_m, best_cost = m, cost
        return cls(best_m)

    def reset(self) -> None:
        self._stage = 0

    def select(self, posterior, eligible_mask: int) -> List[int]:
        self._stage += 1
        idx = indices_from_mask(eligible_mask)
        if self._stage == 1:
            pools = []
            for lo in range(0, len(idx), self.pool_size):
                chunk = idx[lo : lo + self.pool_size]
                mask = 0
                for i in chunk:
                    mask |= 1 << i
                pools.append(mask)
            return pools
        return [1 << i for i in idx]


class ArrayTestingPolicy(SelectionPolicy):
    """Two-dimensional array (grid) testing.

    The cohort is laid out on an ``rows × cols`` grid; stage 1 assays
    every row pool and every column pool simultaneously, so each
    individual appears in exactly two pools.  A single positive lights
    up one row and one column, localising it to their intersection; any
    individual still undetermined after the grid round (intersections of
    positive lines, assay ambiguity) is tested individually.

    The classic non-adaptive middle ground between Dorfman (fewer pools,
    more confirmation tests) and fully sequential Bayesian selection —
    included as the second literature baseline of experiment R5.
    """

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = check_positive_int(rows, "rows")
        self.cols = check_positive_int(cols, "cols")
        self.name = f"array-{self.rows}x{self.cols}"
        self._stage = 0

    def reset(self) -> None:
        self._stage = 0

    def _grid(self, idx: List[int]) -> List[List[int]]:
        """Row-major layout of the eligible individuals (ragged tail)."""
        return [idx[r * self.cols : (r + 1) * self.cols] for r in range(self.rows)]

    def select(self, posterior, eligible_mask: int) -> List[int]:
        self._stage += 1
        idx = indices_from_mask(eligible_mask)
        if self._stage > 1:
            return [1 << i for i in idx]
        capacity = self.rows * self.cols
        pools: List[int] = []
        for lo in range(0, len(idx), capacity):
            sheet = idx[lo : lo + capacity]
            grid = self._grid(sheet)
            for row in grid:
                mask = 0
                for i in row:
                    mask |= 1 << i
                if mask:
                    pools.append(mask)
            for c in range(self.cols):
                mask = 0
                for row in grid:
                    if c < len(row):
                        mask |= 1 << row[c]
                if mask:
                    pools.append(mask)
        return pools

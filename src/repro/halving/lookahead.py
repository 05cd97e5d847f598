"""Look-ahead rules: selecting several pooled tests per stage.

Sequential halving needs a lab round-trip per test.  The look-ahead
generalisation picks ``s`` pools *before* seeing any of their outcomes so
they run in one stage.  The s pools jointly partition the lattice into
``2^s`` cells (each state is clean/dirty for each pool); the ideal batch
gives every cell mass ``2^-s`` — the s-fold generalisation of halving.
We select greedily: each added pool minimises the deviation of the
refined cell masses from uniform, which reduces to classic halving at
``s = 1`` and is the standard tractable surrogate for the exponential
joint search.

The trade-off the experiments quantify: fewer stages, slightly more
tests (later pools in a batch are chosen with less information).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.halving.bha import ordering_key, scan_order
from repro.util.bits import popcount_any

__all__ = ["batch_balance_objective", "select_lookahead_pools"]


def batch_balance_objective(masses: np.ndarray) -> float:
    """Total-variation distance of the cell masses from uniform."""
    m = np.asarray(masses, dtype=np.float64)
    uniform = 1.0 / m.size
    return float(0.5 * np.abs(m - uniform).sum())


def select_lookahead_pools(
    belief, candidate_masks: np.ndarray, s: int
) -> Tuple[List[int], float]:
    """Greedy s-pool batch minimising cell-mass imbalance.

    Returns ``(pools, final_objective)``.  Pool ``j+1`` is chosen given
    pools ``1..j`` by refining every existing cell into clean/dirty
    halves — one ``belief.refined_cell_masses`` call per greedy step —
    and scoring the refined partition's distance from uniform, scanning
    the candidates small pools first.  On an exact belief the scores are
    compared by :func:`~repro.halving.bha.ordering_key`, so a tie keeps
    the first candidate scanned however the blocks summed the masses.  ``s = 1`` coincides with
    :func:`repro.halving.bha.select_halving_pool` up to tie-breaking.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    candidates = np.asarray(candidate_masks)
    if candidates.size == 0:
        raise ValueError("no candidate pools supplied")
    order = scan_order(candidates, popcount_any(candidates))
    margin = 0.0 if belief.exact else 1e-15

    chosen: List[int] = []
    best_obj = np.inf
    for j in range(min(s, candidates.size)):
        masses = belief.refined_cell_masses(chosen, candidates, 1 << (j + 1))
        best = None
        for c_i in order:
            pool = int(candidates[c_i])
            if pool in chosen:
                continue
            obj = batch_balance_objective(masses[c_i])
            key = float(ordering_key(belief, obj))
            if best is None or key < best[0] - margin:
                best = (key, obj, pool)
        if best is None:
            break
        _, best_obj, pool = best
        chosen.append(pool)
    return chosen, float(best_obj)

"""The Bayesian Halving Algorithm (single-pool selection).

For a candidate pool ``A``, the lattice splits into the down-set
``D_A = {states with no positive in A}`` and its complementary up-set.
A (noiseless) pooled test of ``A`` resolves exactly this dichotomy, so
the most informative pool is the one whose down-set posterior mass is
nearest one half — the halving rule.  The Biostatistics'22 analysis
proves this rule optimally convergent for lattice classification even
under strong dilution, which is why SBGT's "test selection" operation
class is precisely a massively-parallel arg-min of this objective.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lattice.partition import LatticeBlock, block_down_set_partial
from repro.lattice.states import StateSpace
from repro.util.bits import popcount64
from repro.util.numerics import tie_key

__all__ = ["down_set_masses", "halving_objective", "select_halving_pool"]


def down_set_masses(space: StateSpace, pool_masks: np.ndarray) -> np.ndarray:
    """Normalised down-set mass of every candidate pool (vectorised).

    Weights are exponentiated against the running maximum so the result
    is stable for unnormalised log-probabilities too.
    """
    pools = np.asarray(pool_masks, dtype=np.uint64)
    shift = float(space.log_probs.max())
    w = np.exp(space.log_probs - shift)
    block = LatticeBlock(space.n_items, space.masks, space.log_probs - shift)
    partial = block_down_set_partial(block, pools)
    return partial / w.sum()


def halving_objective(masses: np.ndarray) -> np.ndarray:
    """Distance of each down-set mass from the ideal half split."""
    return np.abs(np.asarray(masses, dtype=np.float64) - 0.5)


def select_halving_pool(
    space: StateSpace, pool_masks: np.ndarray
) -> Tuple[int, float, float]:
    """Pick the candidate minimising the halving objective.

    Ties (gaps equal to 1e-12, see :func:`repro.util.numerics.tie_key`)
    break toward smaller pools (fewer samples consumed), then lower mask
    value, making selection deterministic for reproducible runs.

    Returns ``(pool_mask, down_set_mass, objective_gap)``.
    """
    pools = np.asarray(pool_masks, dtype=np.uint64)
    if pools.size == 0:
        raise ValueError("no candidate pools supplied")
    masses = down_set_masses(space, pools)
    gaps = halving_objective(masses)
    sizes = popcount64(pools)
    # Lexicographic arg-min over (gap, pool size, mask value).
    order = np.lexsort((pools, sizes, tie_key(gaps)))
    best = int(order[0])
    return int(pools[best]), float(masses[best]), float(gaps[best])

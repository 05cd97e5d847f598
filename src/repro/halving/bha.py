"""The Bayesian Halving Algorithm (single-pool selection).

For a candidate pool ``A``, the lattice splits into the down-set
``D_A = {states with no positive in A}`` and its complementary up-set.
A (noiseless) pooled test of ``A`` resolves exactly this dichotomy, so
the most informative pool is the one whose down-set posterior mass is
nearest one half — the halving rule.  The Biostatistics'22 analysis
proves this rule optimally convergent for lattice classification even
under strong dilution, which is why SBGT's "test selection" operation
class is precisely a massively-parallel arg-min of this objective.

Every rule in this package is written once, against a *belief*: anything
that answers the selection statistics (``down_set_masses``,
``pool_count_hists``, ``refined_cell_masses``) and declares whether they
are ``exact``.  An :class:`~repro.sbgt.session.SBGTSession` (with or
without an engine context) and a bare
:class:`~repro.sbgt.backend.PosteriorBackend` both do; the rules cannot
tell which one computed the numbers, so they pick the same pools.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.util.bits import popcount_any
from repro.util.numerics import tie_key

__all__ = ["ordering_key", "scan_order", "halving_objective", "select_halving_pool"]


def ordering_key(belief, values: np.ndarray) -> np.ndarray:
    """*values* (marginals, gaps) as a sort key for one selection step.

    An exact belief's mathematical ties become equal keys, so the
    documented secondary keys decide them whatever kernel or executor
    produced the numbers; an approximate belief's values pass through.
    """
    return tie_key(values) if belief.exact else np.asarray(values, dtype=np.float64)


def scan_order(*keys: np.ndarray) -> np.ndarray:
    """Stable ordering by the given keys, most significant *last*.

    ``np.lexsort`` semantics, but tolerant of object-dtype key arrays
    (arbitrary-precision pool masks from >64-individual cohorts, which
    lexsort rejects).
    """
    try:
        return np.lexsort(keys)
    except TypeError:
        sig = list(reversed(keys))
        idx = sorted(range(len(keys[0])), key=lambda i: tuple(k[i] for k in sig))
        return np.asarray(idx, dtype=np.intp)


def halving_objective(masses: np.ndarray) -> np.ndarray:
    """Distance of each down-set mass from the ideal half split."""
    return np.abs(np.asarray(masses, dtype=np.float64) - 0.5)


def select_halving_pool(belief, pool_masks: np.ndarray) -> Tuple[int, float, float]:
    """Pick the candidate minimising the halving objective.

    Ties (gaps of an exact belief equal to 1e-12, see
    :func:`ordering_key`) break toward smaller pools (fewer samples
    consumed), then lower mask value, making selection deterministic for
    reproducible runs.

    Returns ``(pool_mask, down_set_mass, objective_gap)``.
    """
    pools = np.asarray(pool_masks)
    if pools.size == 0:
        raise ValueError("no candidate pools supplied")
    masses = belief.down_set_masses(pools)
    gaps = halving_objective(masses)
    # Lexicographic arg-min over (gap, pool size, mask value).
    order = scan_order(pools, popcount_any(pools), ordering_key(belief, gaps))
    best = int(order[0])
    return int(pools[best]), float(masses[best]), float(gaps[best])

"""Distributed test selection (operation class R2).

Selection consumes *selection statistics* from a
:class:`~repro.sbgt.backend.PosteriorBackend` — down-set masses,
positives-in-pool histograms, refined-cell masses — and finishes the
arg-min at the driver with the identical tie-breaking as the serial rule,
so distributed and serial screens choose the *same pools* given the same
posterior — the property the integration tests pin down.

These functions are representation-agnostic: the dense lattice computes
the statistics with broadcast-and-tree-aggregate passes, the sparse and
particle backends with driver-local NumPy; nothing here knows which.
Internals like the dense lattice's deferred-normalisation ``log_offset``
stay behind the protocol.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.halving.bha import halving_objective
from repro.halving.lookahead import batch_balance_objective
from repro.obs.tracer import PHASE_SELECTION, traced
from repro.sbgt.backend import PosteriorBackend
from repro.util.bits import popcount_any
from repro.util.numerics import tie_key

__all__ = [
    "ordering_key",
    "down_set_masses_distributed",
    "select_halving_pool_distributed",
    "select_lookahead_pools_distributed",
    "select_infogain_pool_distributed",
]


def ordering_key(posterior: PosteriorBackend, values: np.ndarray) -> np.ndarray:
    """*values* (marginals, gaps) as a sort key for one selection step.

    An exact backend's mathematical ties become equal keys, so the
    documented secondary keys decide them whatever kernel or executor
    produced the numbers; an approximate backend's values pass through.
    """
    return tie_key(values) if posterior.exact else np.asarray(values, dtype=np.float64)


def _tie_break_order(*keys: np.ndarray) -> np.ndarray:
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


def down_set_masses_distributed(
    posterior: PosteriorBackend, pool_masks: np.ndarray
) -> np.ndarray:
    """Down-set mass of each candidate pool (already normalised)."""
    return posterior.down_set_masses(pool_masks)


@traced(PHASE_SELECTION, "select_halving")
def select_halving_pool_distributed(
    posterior: PosteriorBackend, pool_masks: np.ndarray
) -> Tuple[int, float, float]:
    """Bayesian Halving Algorithm over a posterior backend.

    Returns ``(pool_mask, down_set_mass, objective_gap)`` with the same
    deterministic (gap, pool size, mask) tie-breaking as the serial
    :func:`repro.halving.bha.select_halving_pool`.
    """
    pools = np.asarray(pool_masks)
    if pools.size == 0:
        raise ValueError("no candidate pools supplied")
    masses = posterior.down_set_masses(pools)
    gaps = halving_objective(masses)
    sizes = popcount_any(pools)
    order = _tie_break_order(pools, sizes, ordering_key(posterior, gaps))
    best = int(order[0])
    return int(pools[best]), float(masses[best]), float(gaps[best])


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return -(p * np.log(p) + (1 - p) * np.log1p(-p))


@traced(PHASE_SELECTION, "select_infogain")
def select_infogain_pool_distributed(
    posterior: PosteriorBackend, candidate_masks: np.ndarray, model
) -> Tuple[int, float]:
    """Mutual-information pool selection (binary models).

    One :meth:`~repro.sbgt.backend.PosteriorBackend.pool_count_hists`
    call yields every candidate's positives-in-pool distribution; the
    driver finishes with the closed-form binary mutual information,
    matching :class:`repro.halving.policy.InformationGainPolicy` choice
    for choice.
    """
    if not getattr(model, "binary", False):
        raise ValueError("information-gain selection requires a binary response model")
    candidates = np.asarray(candidate_masks)
    if candidates.size == 0:
        raise ValueError("no candidate pools supplied")
    sizes = popcount_any(candidates)
    hists = posterior.pool_count_hists(candidates)
    best_pool, best_info = None, -np.inf
    order = _tie_break_order(candidates, sizes)  # deterministic scan, small first
    for c_i in order:
        pool_size = int(sizes[c_i])
        pk = hists[c_i, : pool_size + 1]
        p_pos_given_k = model.positive_prob_by_count(pool_size)
        p_pos = float(pk @ p_pos_given_k)
        info = float(
            _binary_entropy(np.array([p_pos]))[0] - pk @ _binary_entropy(p_pos_given_k)
        )
        if info > best_info + 1e-15:
            best_pool, best_info = int(candidates[c_i]), info
    assert best_pool is not None
    return best_pool, float(best_info)


@traced(PHASE_SELECTION, "select_lookahead")
def select_lookahead_pools_distributed(
    posterior: PosteriorBackend, candidate_masks: np.ndarray, s: int
) -> Tuple[List[int], float]:
    """Greedy s-pool look-ahead batch selection over a posterior backend.

    One :meth:`~repro.sbgt.backend.PosteriorBackend.refined_cell_masses`
    call per greedy step; the driver scores the balance objective and
    appends the winner (same deterministic scan order as the serial
    :func:`repro.halving.lookahead.select_lookahead_pools`).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    candidates = np.asarray(candidate_masks)
    if candidates.size == 0:
        raise ValueError("no candidate pools supplied")
    sizes = popcount_any(candidates)
    scan_order = _tie_break_order(candidates, sizes)

    chosen: List[int] = []
    best_obj = np.inf
    for j in range(min(s, candidates.size)):
        n_cells = 1 << (j + 1)
        masses = posterior.refined_cell_masses(chosen, candidates, n_cells)
        best = None
        for c_i in scan_order:
            pool = int(candidates[c_i])
            if pool in chosen:
                continue
            obj = batch_balance_objective(masses[c_i])
            if best is None or obj < best[0] - 1e-15:
                best = (obj, pool)
        if best is None:
            break
        best_obj, pool = best
        chosen.append(pool)
    return chosen, float(best_obj)

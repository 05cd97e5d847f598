"""Information-gain selection: the pool whose outcome says the most.

For binary response models the expected information of testing pool
``A`` is ``I(Y; S) = H(Y) − Σ_k P(k) H(Y | k)`` with ``P(k)`` the
posterior distribution of positives inside the pool.  Halving is the
noiseless special case; this rule additionally discounts pools whose
outcome the dilution noise would blur.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.halving.bha import ordering_key, scan_order
from repro.util.bits import popcount_any

__all__ = ["select_infogain_pool"]


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return -(p * np.log(p) + (1 - p) * np.log1p(-p))


def select_infogain_pool(belief, candidate_masks: np.ndarray, model) -> Tuple[int, float]:
    """Pick the candidate maximising mutual information with its outcome.

    One ``belief.pool_count_hists`` call yields every candidate's
    positives-in-pool distribution; the closed-form binary mutual
    information finishes the arg-max, scanning small pools first so a
    tie keeps the cheaper pool (on an exact belief, a tie by
    :func:`~repro.halving.bha.ordering_key`).  Returns
    ``(pool_mask, information)``.
    """
    if not getattr(model, "binary", False):
        raise ValueError("information-gain selection requires a binary response model")
    candidates = np.asarray(candidate_masks)
    if candidates.size == 0:
        raise ValueError("no candidate pools supplied")
    sizes = popcount_any(candidates)
    hists = belief.pool_count_hists(candidates)
    margin = 0.0 if belief.exact else 1e-15
    best_pool, best_key, best_info = None, -np.inf, -np.inf
    for c_i in scan_order(candidates, sizes):
        pool_size = int(sizes[c_i])
        pk = hists[c_i, : pool_size + 1]
        p_pos_given_k = model.positive_prob_by_count(pool_size)
        p_pos = float(pk @ p_pos_given_k)
        info = float(
            _binary_entropy(np.array([p_pos]))[0] - pk @ _binary_entropy(p_pos_given_k)
        )
        key = float(ordering_key(belief, info))
        if key > best_key + margin:
            best_pool, best_key, best_info = int(candidates[c_i]), key, info
    assert best_pool is not None
    return best_pool, float(best_info)

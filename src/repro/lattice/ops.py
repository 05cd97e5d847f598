"""Vectorised lattice-model operations.

These are the three operation classes SBGT's evaluation times:

* *manipulation* — :func:`posterior_update`, :func:`normalize_log_probs`,
  :func:`condition_on_classification` (and pruning, in
  :mod:`repro.lattice.prune`);
* *test selection* — :func:`down_set_mass`, the quantity the Bayesian
  Halving Algorithm ranks candidate pools by;
* *statistical analysis* — :func:`marginals`, :func:`entropy`,
  :func:`map_state`, :func:`top_states`.

Every function is a pure NumPy sweep over the mask/log-prob arrays.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.lattice.states import StateSpace
from repro.util.bits import bit_column, intersect_count
from repro.util.numerics import logsumexp

__all__ = [
    "normalize_log_probs",
    "entropy",
    "marginals",
    "map_state",
    "top_states",
    "down_set_mass",
    "pool_count_distribution",
    "conditioned_log_probs",
    "posterior_update",
    "condition_on_classification",
]


def normalize_log_probs(log_probs: np.ndarray) -> np.ndarray:
    """Shift log-probabilities so they sum (in linear space) to one."""
    lp = np.asarray(log_probs, dtype=np.float64)
    total = logsumexp(lp)
    if not np.isfinite(total):
        raise ValueError("cannot normalize: total mass is zero or non-finite")
    return lp - total


def entropy(space: StateSpace) -> float:
    """Shannon entropy (nats) of the normalised state distribution."""
    p = space.probs()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def marginals(space: StateSpace) -> np.ndarray:
    """Per-individual posterior infection probability.

    ``marginals(space)[i] = P(individual i infected)`` — the quantity the
    classification thresholds act on.
    """
    p = space.probs()
    out = np.empty(space.n_items, dtype=np.float64)
    for i in range(space.n_items):
        out[i] = p[bit_column(space.masks, i)].sum()
    return out


def map_state(space: StateSpace) -> int:
    """Most probable state (maximum a posteriori mask)."""
    return int(space.masks[int(np.argmax(space.log_probs))])


def top_states(space: StateSpace, k: int) -> List[Tuple[int, float]]:
    """The *k* highest-probability states as ``(mask, probability)``."""
    if k <= 0:
        return []
    k = min(k, space.size)
    p = space.probs()
    idx = np.argpartition(-p, k - 1)[:k]
    idx = idx[np.argsort(-p[idx], kind="stable")]
    return [(int(space.masks[i]), float(p[i])) for i in idx]


def down_set_mass(space: StateSpace, pool_mask: int) -> float:
    """Posterior mass of the down-set {states with no positive in pool}.

    This is ``P(pool is truly all-negative)`` — the halving statistic:
    BHA drives it toward 1/2 before each test.
    """
    p = space.probs()
    clean = (space.masks & np.uint64(pool_mask)) == np.uint64(0)
    return float(p[clean].sum())


def pool_count_distribution(space: StateSpace, pool_mask: int) -> np.ndarray:
    """Distribution of the number of positives ``k`` inside a pool.

    Entry ``k`` is ``P(|s ∩ pool| = k)`` for ``k`` in ``0..|pool|`` —
    exactly the mixing weights of the predictive distribution of a pooled
    test under a dilution model.
    """
    pool_size = int(bin(int(pool_mask)).count("1"))
    counts = intersect_count(space.masks, pool_mask)
    p = space.probs()
    return np.bincount(counts, weights=p, minlength=pool_size + 1)


def conditioned_log_probs(
    space: StateSpace, pool_mask: int, log_lik_by_count: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Unnormalised log-posterior of a pooled-test outcome, and its log-mass.

    ``log_lik_by_count[k]`` must be the log-likelihood of the observed
    outcome given ``k`` positives in the pool (precomputed by the dilution
    model for ``k = 0..|pool|``).  One gather + add over the whole state
    array — the single hottest kernel in the system — into a *new* array:
    *space* is only read, so a caller can refuse a zero-mass outcome and
    keep the lattice it had.  The log-mass, relative to the mass of
    ``space.log_probs``, is the outcome's predictive log-probability.
    """
    ll = np.asarray(log_lik_by_count, dtype=np.float64)
    counts = intersect_count(space.masks, pool_mask)
    if counts.max(initial=0) >= ll.size:
        raise ValueError(
            f"log_lik_by_count has {ll.size} entries but a state places "
            f"{int(counts.max())} positives in the pool"
        )
    log_probs = space.log_probs + ll[counts]
    return log_probs, logsumexp(log_probs)


def posterior_update(
    space: StateSpace, pool_mask: int, log_lik_by_count: np.ndarray
) -> StateSpace:
    """Bayes update for a pooled-test outcome: :func:`conditioned_log_probs`,
    normalised and adopted (returns *space*).  An outcome without mass
    raises ``ValueError`` and leaves *space* as it was.
    """
    log_probs, log_mass = conditioned_log_probs(space, pool_mask, log_lik_by_count)
    if not np.isfinite(log_mass):
        raise ValueError("cannot normalize: total mass is zero or non-finite")
    log_probs -= log_mass
    space.log_probs = log_probs
    return space


def condition_on_classification(
    space: StateSpace, positive_mask: int = 0, negative_mask: int = 0
) -> StateSpace:
    """Restrict the lattice to states consistent with settled diagnoses.

    States missing a confirmed-positive bit, or containing a
    confirmed-negative bit, are removed from the support (the lattice
    interval ``[positive_mask, complement(negative_mask)]``).
    """
    if int(positive_mask) & int(negative_mask):
        raise ValueError("an individual cannot be classified both ways")
    pos = np.uint64(positive_mask)
    neg = np.uint64(negative_mask)
    keep = ((space.masks & pos) == pos) & ((space.masks & neg) == np.uint64(0))
    if not keep.any():
        raise ValueError("conditioning removed every state (contradictory evidence)")
    masks = space.masks[keep]
    log_probs = normalize_log_probs(space.log_probs[keep])
    return StateSpace(space.n_items, masks, log_probs)


def project_out_bit(space: StateSpace, bit: int, keep_positive: bool) -> StateSpace:
    """Condition on individual *bit*'s settled status and remove the bit.

    The lattice interval consistent with the settled diagnosis is kept
    (bit = 1 for a settled positive, 0 for a settled negative), then the
    bit is squeezed out of every mask, halving the representable index
    space: remaining individuals above *bit* shift down one position.
    This is the "lattice contraction" manipulation that keeps sequential
    screens tractable as diagnoses settle — the caller must track the
    index remapping.
    """
    if not 0 <= bit < space.n_items:
        raise ValueError(f"bit {bit} outside [0, {space.n_items})")
    if space.n_items == 1:
        raise ValueError("cannot project the last remaining individual out")
    bit_u = np.uint64(bit)
    one = np.uint64(1)
    has_bit = (space.masks >> bit_u) & one == one
    keep = has_bit if keep_positive else ~has_bit
    if not keep.any():
        raise ValueError("projection removed every state (contradictory evidence)")
    masks = space.masks[keep]
    low = masks & ((one << bit_u) - one)
    high = (masks >> (bit_u + one)) << bit_u
    new_masks = low | high
    log_probs = normalize_log_probs(space.log_probs[keep])
    return StateSpace(space.n_items - 1, new_masks, log_probs)

"""Mass-based lattice pruning.

Sequential screens concentrate posterior mass onto a few states quickly;
carrying the full lattice after that wastes every subsequent sweep.
Pruning keeps the smallest state set holding at least ``1 - epsilon`` of
the posterior (plus anything tied at the boundary), renormalises, and
reports what was dropped so sessions can bound the approximation error
they have accumulated — the paper's lattice "manipulation" class includes
exactly this shrinking of the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.lattice.ops import normalize_log_probs
from repro.lattice.states import StateSpace

__all__ = ["PruneStats", "prune_by_mass", "prune_below"]


@dataclass(frozen=True)
class PruneStats:
    """Outcome of a pruning pass (serial or distributed).

    The serial kernels (:func:`prune_by_mass`, :func:`prune_below`)
    attach the surviving :class:`StateSpace` as ``space``; distributed
    and backend prunes mutate in place and leave ``space`` as ``None``.
    """

    kept_states: int
    dropped_states: int
    dropped_mass: float  # posterior mass removed (pre-renormalisation)
    space: Optional[StateSpace] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PruneStats(kept={self.kept_states}, dropped={self.dropped_states}, "
            f"mass={self.dropped_mass:.3g})"
        )


def prune_by_mass(space: StateSpace, epsilon: float) -> PruneStats:
    """Keep the smallest high-probability set covering ``1 - epsilon`` mass.

    States are ranked by probability; the prefix reaching the target mass
    survives.  ``epsilon = 0`` only removes states of exactly zero
    probability.  The MAP state always survives.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    p = space.probs()
    order = np.argsort(-p, kind="stable")
    cum = np.cumsum(p[order])
    # Index of the first position where cumulative mass reaches target:
    # everything up to and including it is kept.
    target = 1.0 - epsilon
    cut = int(np.searchsorted(cum, target, side="left"))
    cut = min(cut, p.size - 1)
    keep_idx = order[: cut + 1]
    if epsilon == 0.0:
        keep_idx = order[p[order] > 0.0]
        if keep_idx.size == 0:
            keep_idx = order[:1]
    keep_idx = np.sort(keep_idx)  # preserve the original linear extension
    dropped_mass = float(1.0 - p[keep_idx].sum())
    new_space = StateSpace(
        space.n_items,
        space.masks[keep_idx],
        normalize_log_probs(space.log_probs[keep_idx]),
    )
    return PruneStats(
        space=new_space,
        kept_states=int(keep_idx.size),
        dropped_states=int(p.size - keep_idx.size),
        dropped_mass=max(0.0, dropped_mass),
    )


def prune_below(space: StateSpace, floor: float) -> PruneStats:
    """Drop states with posterior probability strictly below *floor*."""
    if not 0.0 <= floor < 1.0:
        raise ValueError("floor must be in [0, 1)")
    p = space.probs()
    keep = p >= floor
    if not keep.any():
        keep[int(np.argmax(p))] = True
    keep_idx = np.flatnonzero(keep)
    dropped_mass = float(p[~keep].sum())
    new_space = StateSpace(
        space.n_items,
        space.masks[keep_idx],
        normalize_log_probs(space.log_probs[keep_idx]),
    )
    return PruneStats(
        space=new_space,
        kept_states=int(keep_idx.size),
        dropped_states=int(p.size - keep_idx.size),
        dropped_mass=dropped_mass,
    )

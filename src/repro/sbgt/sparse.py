"""Sparse posterior backend: explicit above-floor states, no 2^N wall.

The dense lattice carries every state of the Boolean lattice; sequential
screens concentrate mass onto a vanishing fraction of them within a few
stages.  :class:`SparsePosterior` turns pruning below a probability
floor into the *representation*: only states whose posterior
probability clears a floor stay explicit, as rows of a boolean
state-matrix with a log-weight each, so memory tracks surviving mass
instead of 2^N.  With ``floor=0`` and a support budget covering the full
lattice it is exact — the small-N cross-check the tests pin down.

States are rows of a ``(S, n_items)`` boolean matrix rather than uint64
masks, so cohorts far beyond 64 individuals work; masks only appear at
the :class:`~repro.sbgt.backend.PosteriorBackend` boundary, as Python
arbitrary-precision ints.  Beside the matrix the backend keeps its
*nonzero index*, the ``(rows, cols)`` of every set bit in row-major
order, and every selection and update kernel is one pass over that
index instead of a ``states[:, pool]`` gather per pool.  The mutators
keep the index current; they never rebuild it.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import logsumexp

from repro.bayes.priors import PriorSpec
from repro.lattice.prune import PruneStats
from repro.lattice.states import StateSpace
from repro.obs.tracer import PHASE_ANALYSIS, PHASE_LATTICE, PHASE_SELECTION, traced
from repro.sbgt.backend import PosteriorBackend
from repro.util.bits import indices_from_mask
from repro.util.numerics import log1mexp

__all__ = ["SparsePosterior"]

#: Default cap on explicit states (memory bound, not a correctness knob).
DEFAULT_MAX_STATES = 1 << 17


def _pool_columns(pool_mask: int, n_items: int) -> np.ndarray:
    cols = np.asarray(indices_from_mask(int(pool_mask)), dtype=np.intp)
    if cols.size and cols[-1] >= n_items:
        raise ValueError(f"pool mask selects bit {int(cols[-1])} outside cohort")
    return cols


# ----------------------------------------------------------------------
# kernels over a nonzero index — shared with the particle backend
# ----------------------------------------------------------------------
#: ``(rows, cols)`` of a boolean state matrix's set bits, row-major —
#: what ``np.nonzero(states)`` returns.
StateIndex = Tuple[np.ndarray, np.ndarray]


def state_index(states: np.ndarray) -> StateIndex:
    """The nonzero index of a ``(S, n_items)`` boolean state matrix."""
    return np.divmod(np.flatnonzero(states), states.shape[1])


def _pool_rows(index: StateIndex, pool_cols: np.ndarray, n_items: int) -> np.ndarray:
    """The row of every set bit inside the pool (once per bit)."""
    rows, cols = index
    in_pool = np.zeros(n_items, dtype=bool)
    in_pool[pool_cols] = True
    # take/compress: ~3x faster than ``rows[in_pool[cols]]``, same array.
    return np.compress(np.take(in_pool, cols), rows)


def pool_counts(
    index: StateIndex, n_states: int, pool_cols: np.ndarray, n_items: int
) -> np.ndarray:
    """Positives each state places in the pool: ``states[:, pool_cols].sum(axis=1)``."""
    return np.bincount(_pool_rows(index, pool_cols, n_items), minlength=n_states)


def pool_hits(
    index: StateIndex, n_states: int, pool_cols: np.ndarray, n_items: int
) -> np.ndarray:
    """Whether each state has a positive in the pool: ``states[:, pool_cols].any(axis=1)``."""
    hit = np.zeros(n_states, dtype=bool)
    hit[_pool_rows(index, pool_cols, n_items)] = True
    return hit


def index_down_set_masses(
    index: StateIndex, p: np.ndarray, pool_masks: np.ndarray, n_items: int
) -> np.ndarray:
    """P(no positives in pool) per pool.

    The states missing the pool are the array the state-matrix formula
    ``p[~states[:, cols].any(axis=1)]`` selects, so its (pairwise) sum is
    the same to the last bit.
    """
    pools = np.asarray(pool_masks).ravel()
    out = np.empty(pools.size, dtype=np.float64)
    for c, pool in enumerate(pools):
        hit = pool_hits(index, p.size, _pool_columns(int(pool), n_items), n_items)
        out[c] = np.compress(~hit, p).sum()
    return out


def index_pool_count_hists(
    index: StateIndex, p: np.ndarray, candidate_masks: np.ndarray, n_items: int
) -> np.ndarray:
    """Positives-in-pool histograms for a whole candidate table."""
    candidates = np.asarray(candidate_masks).ravel()
    col_sets = [_pool_columns(int(c), n_items) for c in candidates]
    max_size = max((cols.size for cols in col_sets), default=0)
    out = np.zeros((candidates.size, max_size + 1))
    for c, cols in enumerate(col_sets):
        counts = pool_counts(index, p.size, cols, n_items)
        out[c, : counts.max(initial=0) + 1] = np.bincount(counts, weights=p)
    return out


def index_refined_cell_masses(
    index: StateIndex,
    p: np.ndarray,
    chosen: Sequence[int],
    candidate_masks: np.ndarray,
    n_cells: int,
    n_items: int,
) -> np.ndarray:
    """Refined-partition cell masses for greedy look-ahead selection."""
    candidates = np.asarray(candidate_masks).ravel()
    cell_idx = np.zeros(p.size, dtype=np.int64)
    for j, pool in enumerate(chosen):
        hit = pool_hits(index, p.size, _pool_columns(int(pool), n_items), n_items)
        cell_idx |= hit.astype(np.int64) << j
    out = np.empty((candidates.size, n_cells))
    shift = len(tuple(chosen))
    for c, cand in enumerate(candidates):
        dirty = pool_hits(index, p.size, _pool_columns(int(cand), n_items), n_items)
        refined = cell_idx | (dirty.astype(np.int64) << shift)
        out[c] = np.bincount(refined, weights=p, minlength=n_cells)
    return out


def matrix_row_mask(row: np.ndarray) -> int:
    """Boolean state row -> arbitrary-precision Python-int bit mask."""
    mask = 0
    for i in np.flatnonzero(row):
        mask |= 1 << int(i)
    return mask


class SparsePosterior(PosteriorBackend):
    """Driver-resident sparse belief state over explicit states.

    Parameters
    ----------
    states:
        ``(S, n_items)`` boolean matrix, one candidate infection pattern
        per row (rows distinct).
    log_weights:
        Per-state log-probability, normalised (``logsumexp == 0``).
    floor:
        After each update, states whose posterior probability falls
        strictly below this are dropped (and the remainder renormalised).
        ``0.0`` keeps everything — exact inference on the given support.
    """

    def __init__(
        self,
        states: np.ndarray,
        log_weights: np.ndarray,
        floor: float = 0.0,
        log_discarded_prior: float = -np.inf,
    ) -> None:
        self.states = np.ascontiguousarray(states, dtype=bool)
        self.log_weights = np.ascontiguousarray(log_weights, dtype=np.float64)
        if self.states.ndim != 2 or self.states.shape[0] != self.log_weights.size:
            raise ValueError("states must be (S, n_items) with one log-weight per row")
        #: The nonzero index of ``states``, kept current by every mutator.
        self.index: StateIndex = state_index(self.states)
        if not 0.0 <= floor < 1.0:
            raise ValueError("floor must be in [0, 1)")
        self.n_items = int(self.states.shape[1])
        self.floor = float(floor)
        #: Log prior mass outside the explicit support at construction.
        self.log_discarded_prior = float(log_discarded_prior)
        self._normalize()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    @traced(PHASE_LATTICE, "sparse_from_prior")
    def from_prior(
        cls,
        prior: PriorSpec,
        floor: float = 0.0,
        max_states: int = DEFAULT_MAX_STATES,
        max_positives: Optional[int] = None,
    ) -> "SparsePosterior":
        """Seed the support with the highest-prior-mass rank levels.

        The product prior concentrates on low-rank states (few
        positives), so the support is the union of rank levels
        ``0..k`` for the largest ``k`` whose cumulative state count fits
        ``max_states`` (clipped to ``max_positives`` when given).  The
        log prior mass left outside is recorded as
        ``log_discarded_prior``; when the whole lattice fits, the
        representation is the exact dense prior.
        """
        if max_states < 1:
            raise ValueError("max_states must be positive")
        n = prior.n_items
        k_cap = n if max_positives is None else min(int(max_positives), n)
        total = 0
        k = -1
        for j in range(k_cap + 1):
            total += comb(n, j)
            if total > max_states:
                break
            k = j
        if k < 0:
            raise ValueError(
                f"max_states={max_states} cannot hold even the rank-0/1 levels "
                f"of a {n}-individual cohort"
            )
        levels: List[np.ndarray] = [np.zeros((1, n), dtype=bool)]
        for size in range(1, k + 1):
            m = comb(n, size)
            combos = np.fromiter(
                chain.from_iterable(combinations(range(n), size)), dtype=np.intp, count=m * size
            ).reshape(m, size)
            level = np.zeros((m, n), dtype=bool)
            level[np.arange(m)[:, None], combos] = True
            levels.append(level)
        states = np.concatenate(levels, axis=0)
        # Canonicalise to ascending mask order: the packed bytes of the
        # reversed rows are the mask's big-endian digits, so sorting on
        # them (first byte as the primary key) is integer mask order.
        # Keeping the same state order as the dense representations
        # makes the floating-point reductions bit-compatible, so
        # exhaustive-support screens replay the dense screens move for
        # move.
        keys = np.packbits(states[:, ::-1], axis=1)
        states = states[np.lexsort(keys.T[::-1])]

        risks = np.clip(np.asarray(prior.risks, dtype=np.float64), 1e-12, 1 - 1e-12)
        logit = np.log(risks) - np.log1p(-risks)
        base = float(np.log1p(-risks).sum())
        # A product, not ``bincount(rows, weights=logit[cols])``: the two
        # sum a state's logits in different orders, and on unequal risks
        # that moves the last bit of rank >= 3 states.
        log_w = states.astype(np.float64) @ logit + base
        log_kept = float(logsumexp(log_w))
        # The enumeration is exact, so the mass outside the support is
        # exactly 1 - exp(log_kept).
        log_disc = log1mexp(min(log_kept, -1e-300)) if log_kept < 0 else -np.inf
        return cls(states, log_w - log_kept, floor=floor, log_discarded_prior=log_disc)

    @classmethod
    def from_state_space(cls, space: StateSpace, floor: float = 0.0) -> "SparsePosterior":
        """Adopt an existing (≤64-individual) state space."""
        n = space.n_items
        states = np.zeros((space.size, n), dtype=bool)
        for i in range(n):
            states[:, i] = (space.masks >> np.uint64(i)) & np.uint64(1) == np.uint64(1)
        return cls(states, space.log_probs, floor=floor)

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------
    @property
    def log_weights(self) -> np.ndarray:
        return self._log_weights

    @log_weights.setter
    def log_weights(self, value: np.ndarray) -> None:
        # Every write (``-=`` included) drops the cached probabilities.
        self._log_weights = value
        self._p: Optional[np.ndarray] = None

    def _probs(self) -> np.ndarray:
        """``exp(log_weights)``, computed once per mutation (read-only)."""
        if self._p is None:
            self._p = np.exp(self._log_weights)
        return self._p

    def _normalize(self) -> None:
        total = float(logsumexp(self.log_weights))
        if not np.isfinite(total):
            raise ValueError("posterior has zero total mass (contradictory evidence?)")
        self.log_weights -= total

    def _keep(self, keep: np.ndarray) -> None:
        rows, cols = self.index
        kept = keep[rows]
        self.index = ((np.cumsum(keep) - 1)[rows[kept]], cols[kept])
        self.states = self.states[keep]
        self.log_weights = self.log_weights[keep]

    def _apply_floor(self) -> None:
        if self.floor <= 0.0:
            return
        keep = self.log_weights >= np.log(self.floor)
        if not keep.any():
            keep[int(np.argmax(self.log_weights))] = True
        if not keep.all():
            self._keep(keep)
            self._normalize()

    # ------------------------------------------------------------------
    # lattice manipulation (R1)
    # ------------------------------------------------------------------
    @traced(PHASE_LATTICE, "sparse_update")
    def update(self, pool_mask: int, log_lik_by_count: np.ndarray) -> float:
        ll = np.asarray(log_lik_by_count, dtype=np.float64)
        cols = _pool_columns(pool_mask, self.n_items)
        counts = pool_counts(self.index, self.num_states(), cols, self.n_items)
        new_lw = self.log_weights + ll[counts]
        log_pred = float(logsumexp(new_lw))  # prior weights are normalised
        if not np.isfinite(log_pred):
            raise ValueError("observed outcome has zero probability under the model")
        self.log_weights = new_lw - log_pred
        self._apply_floor()
        return log_pred

    @traced(PHASE_LATTICE, "sparse_prune")
    def prune(self, epsilon: float) -> PruneStats:
        """Exact mass-ranked prune (the sparse twin of ``prune_by_mass``)."""
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        before = self.num_states()
        if epsilon == 0.0:
            return PruneStats(before, 0, 0.0)
        p = self._probs()
        order = np.argsort(-p, kind="stable")
        cum = np.cumsum(p[order])
        cut = int(np.searchsorted(cum, 1.0 - epsilon, side="left"))
        cut = min(cut, p.size - 1)
        keep_idx = np.sort(order[: cut + 1])
        dropped_mass = float(max(0.0, 1.0 - p[keep_idx].sum()))
        keep = np.zeros(before, dtype=bool)
        keep[keep_idx] = True
        self._keep(keep)
        self._normalize()
        return PruneStats(int(keep_idx.size), before - int(keep_idx.size), dropped_mass)

    @traced(PHASE_LATTICE, "sparse_project_out_bit")
    def project_out_bit(self, bit: int, keep_positive: bool) -> None:
        if not 0 <= bit < self.n_items:
            raise ValueError(f"bit {bit} outside [0, {self.n_items})")
        if self.n_items == 1:
            raise ValueError("cannot project the last remaining individual out")
        col = self.states[:, bit]
        keep = col if keep_positive else ~col
        if not keep.any():
            raise ValueError("conditioning on the settled value leaves zero mass")
        # Rows agreeing on the dropped column stay pairwise distinct
        # after its removal, so no merge pass is needed.
        self._keep(keep)
        rows, cols = self.index
        other = cols != bit
        rows, cols = rows[other], cols[other]
        self.index = (rows, np.where(cols > bit, cols - 1, cols))
        self.states = np.ascontiguousarray(np.delete(self.states, bit, axis=1))
        self.n_items -= 1
        self._normalize()

    # ------------------------------------------------------------------
    # test selection statistics (R2)
    # ------------------------------------------------------------------
    @traced(PHASE_SELECTION, "sparse_down_set_masses")
    def down_set_masses(self, pool_masks: np.ndarray) -> np.ndarray:
        return index_down_set_masses(self.index, self._probs(), pool_masks, self.n_items)

    @traced(PHASE_SELECTION, "sparse_pool_count_hists")
    def pool_count_hists(self, candidate_masks: np.ndarray) -> np.ndarray:
        return index_pool_count_hists(self.index, self._probs(), candidate_masks, self.n_items)

    @traced(PHASE_SELECTION, "sparse_refined_cell_masses")
    def refined_cell_masses(
        self, chosen: Sequence[int], candidate_masks: np.ndarray, n_cells: int
    ) -> np.ndarray:
        return index_refined_cell_masses(
            self.index, self._probs(), chosen, candidate_masks, n_cells, self.n_items
        )

    # ------------------------------------------------------------------
    # statistical analysis (R3)
    # ------------------------------------------------------------------
    @traced(PHASE_ANALYSIS, "sparse_marginals")
    def marginals(self) -> np.ndarray:
        return self._probs() @ self.states.astype(np.float64)

    @traced(PHASE_ANALYSIS, "sparse_entropy")
    def entropy(self) -> float:
        p = self._probs()
        nz = p > 0.0
        return float(-np.sum(p[nz] * self.log_weights[nz]))

    @traced(PHASE_ANALYSIS, "sparse_top_states")
    def top_states(self, k: int) -> List[Tuple[int, float]]:
        if k <= 0 or self.states.shape[0] == 0:
            return []
        k = min(k, self.states.shape[0])
        idx = np.argpartition(-self.log_weights, k - 1)[:k]
        idx = idx[np.argsort(-self.log_weights[idx], kind="stable")]
        p = self._probs()
        return [(matrix_row_mask(self.states[i]), float(p[i])) for i in idx]

    def num_states(self) -> int:
        return int(self.states.shape[0])

    def collect(self) -> StateSpace:
        if self.n_items > 64:
            raise ValueError(
                "cannot collect a >64-individual sparse posterior into a "
                "uint64-masked StateSpace"
            )
        masks = np.zeros(self.states.shape[0], dtype=np.uint64)
        for i in range(self.n_items):
            masks |= self.states[:, i].astype(np.uint64) << np.uint64(i)
        order = np.argsort(masks, kind="stable")
        return StateSpace(self.n_items, masks[order], self.log_weights[order].copy())

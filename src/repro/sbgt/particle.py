"""Particle posterior backend: SMC over infection states.

A weighted particle cloud in the spirit of Cuturi et al.'s sequential
experimental design for group testing: each particle is one candidate
infection pattern (a boolean row), updates reweight by the pooled-test
likelihood, and when the effective sample size collapses the cloud is
systematically resampled and rejuvenated with single-bit
Metropolis-Hastings moves targeting the exact posterior
``prior × recorded evidence`` (the IBIS recipe for static models — the
evidence trail the backend keeps is exactly the MH target).

The counting and selection kernels are the sparse backend's, run on a
nonzero index of the cloud built at each call: rejuvenation flips state
bits in place, so there is no index worth maintaining across calls.

Everything is driver-resident NumPy; determinism comes from the
library's standard RNG plumbing (:func:`repro.util.rng.as_rng`), so a
seeded screen replays bit-identically.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy.special import logsumexp

from repro.bayes.priors import PriorSpec
from repro.lattice.prune import PruneStats
from repro.lattice.states import StateSpace
from repro.obs.tracer import PHASE_ANALYSIS, PHASE_LATTICE, PHASE_SELECTION, traced
from repro.sbgt.backend import PosteriorBackend
from repro.sbgt.sparse import (
    _pool_columns,
    index_down_set_masses,
    index_pool_count_hists,
    index_refined_cell_masses,
    matrix_row_mask,
    pool_counts,
    state_index,
)
from repro.util.rng import RngLike, as_rng

__all__ = ["ParticlePosterior"]


class _Evidence:
    """One recorded pooled outcome, in live-column coordinates.

    ``base`` counts settled-positive pool members whose columns were
    projected out after the test was recorded; the likelihood lookup
    index is ``base + positives among live columns``.
    """

    __slots__ = ("cols", "ll", "base")

    def __init__(self, cols: np.ndarray, ll: np.ndarray, base: int = 0) -> None:
        self.cols = cols
        self.ll = ll
        self.base = base


class ParticlePosterior(PosteriorBackend):
    """Weighted-particle belief state (approximate, any cohort size).

    Parameters
    ----------
    prior:
        Per-individual risks; particles are initialised by independent
        Bernoulli draws from it and MH rejuvenation targets it exactly.
    num_particles:
        Cloud size; error scales ~1/sqrt(num_particles).
    rng:
        Seed / generator through the standard plumbing — the only source
        of randomness in the backend.
    ess_threshold:
        Resample when effective sample size falls below this fraction of
        the cloud.
    rejuvenation_sweeps:
        Single-bit MH sweeps over the cloud after each resample.
    """

    def __init__(
        self,
        prior: PriorSpec,
        num_particles: int = 2048,
        rng: RngLike = None,
        ess_threshold: float = 0.5,
        rejuvenation_sweeps: int = 2,
    ) -> None:
        if num_particles < 2:
            raise ValueError("num_particles must be at least 2")
        if not 0.0 <= ess_threshold <= 1.0:
            raise ValueError("ess_threshold must be in [0, 1]")
        self.n_items = int(prior.n_items)
        self.num_particles = int(num_particles)
        self.ess_threshold = float(ess_threshold)
        self.rejuvenation_sweeps = int(rejuvenation_sweeps)
        self.rng = as_rng(rng)
        risks = np.clip(np.asarray(prior.risks, dtype=np.float64), 1e-12, 1 - 1e-12)
        self._risks = risks.copy()
        self.states = self.rng.random((self.num_particles, self.n_items)) < risks
        self.log_weights = np.full(self.num_particles, -np.log(self.num_particles))
        self._evidence: List[_Evidence] = []
        #: Particle approximations carry no support restriction.
        self.log_discarded_prior = -np.inf

    @classmethod
    def from_prior(
        cls,
        prior: PriorSpec,
        num_particles: int = 2048,
        rng: RngLike = None,
        ess_threshold: float = 0.5,
    ) -> "ParticlePosterior":
        return cls(prior, num_particles=num_particles, rng=rng, ess_threshold=ess_threshold)

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------
    def _probs(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def _normalize(self) -> None:
        total = float(logsumexp(self.log_weights))
        if not np.isfinite(total):
            raise ValueError("posterior has zero total mass (contradictory evidence?)")
        self.log_weights -= total

    def _ess(self) -> float:
        w = self._probs()
        return float(1.0 / np.sum(w * w))

    def _maybe_resample(self) -> None:
        if self._ess() < self.ess_threshold * self.num_particles:
            self._resample()
            self._rejuvenate()

    def _resample(self) -> None:
        """Systematic resampling: one uniform draw, stratified positions."""
        w = self._probs()
        positions = (np.arange(self.num_particles) + self.rng.random()) / self.num_particles
        cum = np.cumsum(w)
        cum[-1] = 1.0  # guard float drift at the top edge
        idx = np.searchsorted(cum, positions, side="right")
        self.states = self.states[idx].copy()
        self.log_weights = np.full(self.num_particles, -np.log(self.num_particles))

    def _rejuvenate(self) -> None:
        """Single-bit MH sweeps targeting prior × recorded evidence."""
        n, m = self.n_items, self.num_particles
        logit = np.log(self._risks) - np.log1p(-self._risks)
        rows = np.arange(m)
        for _ in range(self.rejuvenation_sweeps):
            j = self.rng.integers(0, n, size=m)
            v = self.states[rows, j]
            sign = np.where(v, -1, 1)  # flipping adds/removes one positive
            log_accept = sign * logit[j]
            index = state_index(self.states)
            for ev in self._evidence:
                pool_vec = np.zeros(n, dtype=bool)
                pool_vec[ev.cols] = True
                in_pool = pool_vec[j]
                counts = ev.base + pool_counts(index, m, ev.cols, n)
                counts_new = counts + np.where(in_pool, sign, 0)
                log_accept += ev.ll[counts_new] - ev.ll[counts]
            accept = np.log(self.rng.random(m)) < log_accept
            self.states[rows[accept], j[accept]] ^= True

    # ------------------------------------------------------------------
    # lattice manipulation (R1)
    # ------------------------------------------------------------------
    @traced(PHASE_LATTICE, "particle_update")
    def update(self, pool_mask: int, log_lik_by_count: np.ndarray) -> float:
        ll = np.asarray(log_lik_by_count, dtype=np.float64)
        cols = _pool_columns(pool_mask, self.n_items)
        counts = pool_counts(state_index(self.states), self.num_particles, cols, self.n_items)
        new_lw = self.log_weights + ll[counts]
        log_pred = float(logsumexp(new_lw))  # prior weights are normalised
        if not np.isfinite(log_pred):
            raise ValueError("observed outcome has zero probability under the model")
        self.log_weights = new_lw - log_pred
        self._evidence.append(_Evidence(cols, ll))
        self._maybe_resample()
        return log_pred

    def prune(self, epsilon: float) -> PruneStats:
        """Particle clouds have nothing to prune — fixed-size representation."""
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        return PruneStats(self.num_states(), 0, 0.0)

    @traced(PHASE_LATTICE, "particle_project_out_bit")
    def project_out_bit(self, bit: int, keep_positive: bool) -> None:
        if not 0 <= bit < self.n_items:
            raise ValueError(f"bit {bit} outside [0, {self.n_items})")
        if self.n_items == 1:
            raise ValueError("cannot project the last remaining individual out")
        agrees = self.states[:, bit] == keep_positive
        if agrees.any():
            self.log_weights = np.where(agrees, self.log_weights, -np.inf)
        else:
            # Degenerate cloud: no particle carries the committed value.
            # The diagnosis is already decided, so force the column
            # rather than dying — an approximation the dense backend
            # never needs.
            self.states[:, bit] = keep_positive
        self.states = np.ascontiguousarray(np.delete(self.states, bit, axis=1))
        self.n_items -= 1
        self._risks = np.delete(self._risks, bit)
        for ev in self._evidence:
            in_pool = ev.cols == bit
            if in_pool.any():
                ev.cols = ev.cols[~in_pool]
                if keep_positive:
                    ev.base += 1
            ev.cols = np.where(ev.cols > bit, ev.cols - 1, ev.cols)
        self._normalize()
        self._maybe_resample()

    # ------------------------------------------------------------------
    # test selection statistics (R2)
    # ------------------------------------------------------------------
    @traced(PHASE_SELECTION, "particle_down_set_masses")
    def down_set_masses(self, pool_masks: np.ndarray) -> np.ndarray:
        index = state_index(self.states)
        return index_down_set_masses(index, self._probs(), pool_masks, self.n_items)

    @traced(PHASE_SELECTION, "particle_pool_count_hists")
    def pool_count_hists(self, candidate_masks: np.ndarray) -> np.ndarray:
        index = state_index(self.states)
        return index_pool_count_hists(index, self._probs(), candidate_masks, self.n_items)

    @traced(PHASE_SELECTION, "particle_refined_cell_masses")
    def refined_cell_masses(
        self, chosen: Sequence[int], candidate_masks: np.ndarray, n_cells: int
    ) -> np.ndarray:
        index = state_index(self.states)
        return index_refined_cell_masses(
            index, self._probs(), chosen, candidate_masks, n_cells, self.n_items
        )

    # ------------------------------------------------------------------
    # statistical analysis (R3)
    # ------------------------------------------------------------------
    @traced(PHASE_ANALYSIS, "particle_marginals")
    def marginals(self) -> np.ndarray:
        return self._probs() @ self.states.astype(np.float64)

    def _aggregate_unique(self) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct particle states with their total weights."""
        uniq, inverse = np.unique(self.states, axis=0, return_inverse=True)
        weights = np.bincount(inverse.ravel(), weights=self._probs(), minlength=uniq.shape[0])
        return uniq, weights

    @traced(PHASE_ANALYSIS, "particle_entropy")
    def entropy(self) -> float:
        _, weights = self._aggregate_unique()
        nz = weights > 0.0
        return float(-np.sum(weights[nz] * np.log(weights[nz])))

    @traced(PHASE_ANALYSIS, "particle_top_states")
    def top_states(self, k: int) -> List[Tuple[int, float]]:
        if k <= 0:
            return []
        uniq, weights = self._aggregate_unique()
        k = min(k, uniq.shape[0])
        idx = np.argsort(-weights, kind="stable")[:k]
        return [(matrix_row_mask(uniq[i]), float(weights[i])) for i in idx]

    def num_states(self) -> int:
        return self.num_particles

    def collect(self) -> StateSpace:
        if self.n_items > 64:
            raise ValueError(
                "cannot collect a >64-individual particle posterior into a "
                "uint64-masked StateSpace"
            )
        uniq, weights = self._aggregate_unique()
        keep = weights > 0.0
        uniq, weights = uniq[keep], weights[keep]
        masks = np.zeros(uniq.shape[0], dtype=np.uint64)
        for i in range(self.n_items):
            masks |= uniq[:, i].astype(np.uint64) << np.uint64(i)
        order = np.argsort(masks, kind="stable")
        with np.errstate(divide="ignore"):
            log_probs = np.log(weights[order])
        return StateSpace(self.n_items, masks[order], log_probs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParticlePosterior(n_items={self.n_items}, "
            f"particles={self.num_particles}, ess={self._ess():.1f})"
        )

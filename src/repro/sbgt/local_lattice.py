"""The exact lattice held at the driver: one :class:`LatticeBlock`, no engine.

:class:`LocalLattice` is the context-free twin of
:class:`~repro.sbgt.distributed_lattice.DistributedLattice`: the same
partition kernels and the same deferred-normalisation contract (stored
log-probs jointly sum to ``exp(log_offset)``), over a single block — a
cube for a whole-lattice prior, a generic block for household,
conditioned or pruned spaces.  Every call is one kernel on that block,
so an ``SBGTSession(None, …)`` screens a dense cohort with no job, task
or event; site screens, ``run_screen`` and the calculator run here.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bayes.priors import PriorSpec
from repro.lattice.partition import (
    LatticeBlock,
    block_count_hists_partial,
    block_down_set_partial,
    block_entropy_partial,
    block_filter_consistent,
    block_log_mass,
    block_mass_marginals,
    block_project_out_bit,
    block_refined_cell_partial,
    block_top_states,
    block_update,
)
from repro.lattice.prune import PruneStats, prune_by_mass
from repro.lattice.states import StateSpace
from repro.sbgt.backend import PosteriorBackend
from repro.util.bits import popcount64

__all__ = ["LocalLattice"]


class LocalLattice(PosteriorBackend):
    """A normalised lattice model in one driver-resident block."""

    exact = True
    log_discarded_prior = -np.inf

    def __init__(self, block: LatticeBlock) -> None:
        self.n_items = block.n_items
        self._block = block
        self._log_offset = 0.0
        self._marginals: Optional[np.ndarray] = None
        self._adopt(block, "lattice has zero total mass (contradictory evidence?)")

    @classmethod
    def from_prior(cls, prior: PriorSpec) -> "LocalLattice":
        """The dense product-prior lattice (a cube block)."""
        return cls.from_state_space(prior.build_dense())

    @classmethod
    def from_state_space(cls, space: StateSpace) -> "LocalLattice":
        """Adopt a state space's states; *space* itself is never written."""
        return cls(LatticeBlock(space.n_items, space.masks, space.log_probs))

    def _adopt(self, block: LatticeBlock, zero_mass: str, marginals: bool = True) -> float:
        """Make *block* the lattice, normalised; returns its log-mass relative
        to the previous normalisation.

        The mass and, on a cube, the marginals come from one kernel
        (with ``marginals=False`` the mass alone, the next read folds
        them).  A block without mass raises ``ValueError(zero_mass)`` and
        leaves the lattice as it was.
        """
        log_mass, found = (
            block_mass_marginals(block) if marginals else (block_log_mass(block), None)
        )
        if not np.isfinite(log_mass):
            raise ValueError(zero_mass)
        relative = log_mass - self._log_offset
        self._block, self._log_offset, self._marginals = block, log_mass, found
        return relative

    # ------------------------------------------------------------------
    # lattice manipulation (R1)
    # ------------------------------------------------------------------
    def update(self, pool_mask: int, log_lik_by_count: np.ndarray) -> float:
        # Shallow copy: block_update rebinds log_probs, so a refused
        # outcome leaves the current block untouched.
        updated = block_update(copy.copy(self._block), int(pool_mask), log_lik_by_count)
        return self._adopt(
            updated, "observed outcome has zero probability under the model", marginals=False
        )

    def condition(self, positive_mask: int = 0, negative_mask: int = 0) -> None:
        if int(positive_mask) & int(negative_mask):
            raise ValueError("an individual cannot be classified both ways")
        self._adopt(
            block_filter_consistent(self._block, int(positive_mask), int(negative_mask)),
            "conditioning removed every state (contradictory evidence)",
        )

    def prune(self, epsilon: float) -> PruneStats:
        """The smallest high-mass core (:func:`~repro.lattice.prune.prune_by_mass`)."""
        stats = prune_by_mass(self.collect(), epsilon)
        self._adopt(LatticeBlock(self.n_items, stats.space.masks, stats.space.log_probs), "")
        return PruneStats(stats.kept_states, stats.dropped_states, stats.dropped_mass)

    def project_out_bit(self, bit: int, keep_positive: bool) -> None:
        if not 0 <= bit < self.n_items:
            raise ValueError(f"bit {bit} outside [0, {self.n_items})")
        if self.n_items == 1:
            raise ValueError("cannot project the last remaining individual out")
        self._adopt(
            block_project_out_bit(self._block, bit, keep_positive),
            "projection removed every state (contradictory evidence)",
        )
        self.n_items -= 1

    # ------------------------------------------------------------------
    # test selection statistics (R2)
    # ------------------------------------------------------------------
    def down_set_masses(self, pool_masks: np.ndarray) -> np.ndarray:
        pools = np.asarray(pool_masks, dtype=np.uint64)
        return block_down_set_partial(self._block, pools, self._log_offset)

    def pool_count_hists(self, candidate_masks: np.ndarray) -> np.ndarray:
        candidates = np.asarray(candidate_masks, dtype=np.uint64)
        max_size = int(popcount64(candidates).max()) if candidates.size else 0
        return block_count_hists_partial(self._block, candidates, max_size, self._log_offset)

    def refined_cell_masses(
        self, chosen: Sequence[int], candidate_masks: np.ndarray, n_cells: int
    ) -> np.ndarray:
        return block_refined_cell_partial(
            self._block,
            tuple(int(c) for c in chosen),
            np.asarray(candidate_masks, dtype=np.uint64),
            n_cells,
            self._log_offset,
        )

    # ------------------------------------------------------------------
    # statistical analysis (R3)
    # ------------------------------------------------------------------
    def marginals(self) -> np.ndarray:
        """One marginal kernel per state of the lattice, however many read it."""
        if self._marginals is None:
            _, self._marginals = block_mass_marginals(self._block, need_marginals=True)
        # A certain positive's mass and the total are the same weights
        # summed in two orders; their ratio can round past 1.
        return np.minimum(self._marginals, 1.0)

    def entropy(self) -> float:
        return block_entropy_partial(self._block, self._log_offset)

    def top_states(self, k: int) -> List[Tuple[int, float]]:
        off = self._log_offset
        return [(mask, float(np.exp(lp - off))) for mask, lp in block_top_states(self._block, k)]

    def num_states(self) -> int:
        return self._block.size

    def collect(self) -> StateSpace:
        block = self._block
        return StateSpace(self.n_items, block.masks.copy(), block.log_probs - self._log_offset)

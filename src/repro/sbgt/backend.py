"""The :class:`PosteriorBackend` protocol — what a posterior must do.

Every consumer of a posterior in this library — the halving/lookahead/
infogain rules of :mod:`repro.halving`, the screen stepper, the analyzer,
the serving layer —
talks to the belief state through this surface and nothing else.  The
dense lattice (:class:`~repro.sbgt.distributed_lattice.
DistributedLattice`, its blocks on an engine context or one block on
the driver) is the exact implementation; the sparse above-floor
representation (:class:`~repro.sbgt.sparse.SparsePosterior`) and the
SMC particle filter (:class:`~repro.sbgt.particle.ParticlePosterior`)
are approximate implementations that break the 2^N wall.

Design rules the protocol enforces:

* **No representation leaks.**  Internals like the dense lattice's
  deferred-normalisation ``log_offset``, its RDD, or a particle cloud's
  weights never cross this boundary; selection statistics
  (:meth:`PosteriorBackend.down_set_masses`,
  :meth:`PosteriorBackend.pool_count_hists`,
  :meth:`PosteriorBackend.refined_cell_masses`) come back already
  normalised.
* **Masks are Python ints at the boundary.**  Backends supporting more
  than 64 individuals cannot use uint64 state masks internally, but the
  API still speaks arbitrary-precision integer bit masks (helpers in
  :mod:`repro.util.bits` widen arrays as needed).
* **Mutation is in place.**  ``update`` / ``prune`` /
  ``project_out_bit`` advance the belief state the way a screen does;
  value-returning analyses never mutate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

import numpy as np

from repro.lattice.prune import PruneStats
from repro.lattice.states import StateSpace

__all__ = ["PosteriorBackend", "BACKENDS"]

#: Backend names :func:`repro.workflows.payloads.make_posterior` accepts.
BACKENDS = ("dense", "sparse", "particle")


class PosteriorBackend(ABC):
    """Abstract belief state over a cohort's infection pattern.

    Concrete backends provide the read/write surface below.  ``n_items``
    is the number of individuals currently represented (it shrinks as
    :meth:`project_out_bit` contracts settled individuals out).
    """

    n_items: int

    #: True when the statistics are exact sums over an explicit lattice:
    #: two of them closer than 1e-12 are then one value rounded twice,
    #: and selection orders them as a tie
    #: (:func:`repro.util.numerics.tie_key`).  Approximate backends leave
    #: it False and are ordered by their statistics as computed.
    exact: bool = False

    # ------------------------------------------------------------------
    # lattice manipulation (operation class R1)
    # ------------------------------------------------------------------
    @abstractmethod
    def update(self, pool_mask: int, log_lik_by_count: np.ndarray) -> float:
        """Bayes-update on a pooled outcome; returns the log-predictive
        probability of the outcome under the pre-update belief."""

    @abstractmethod
    def prune(self, epsilon: float) -> PruneStats:
        """Shrink the support, keeping at least ``1 - epsilon`` mass."""

    @abstractmethod
    def project_out_bit(self, bit: int, keep_positive: bool) -> None:
        """Condition on a settled individual and remove their bit."""

    def defer_marginals(self) -> None:
        """Hint that the lattice changes again before its marginals are read.

        A backend that computes the marginals with an :meth:`update` may
        skip them in the next one; the others ignore the hint.
        """

    def rebalance(self, num_blocks: int = 0) -> None:
        """Re-partition / checkpoint the representation.

        A storage-layout operation: backends with nothing to re-partition
        (driver-resident representations) treat it as a no-op.
        """

    # ------------------------------------------------------------------
    # test selection statistics (R2) — already normalised
    # ------------------------------------------------------------------
    @abstractmethod
    def down_set_masses(self, pool_masks: np.ndarray) -> np.ndarray:
        """P(no positives in pool) per candidate pool."""

    @abstractmethod
    def pool_count_hists(self, candidate_masks: np.ndarray) -> np.ndarray:
        """Positives-in-pool distributions for a whole candidate table.

        Returns an ``(n_candidates, max_pool_size + 1)`` array whose row
        ``c`` is P(k positives in candidate ``c``) for k = 0..|pool|
        (columns beyond a pool's size stay zero).  One pass over the
        state set regardless of the candidate count.
        """

    @abstractmethod
    def refined_cell_masses(
        self, chosen: Sequence[int], candidate_masks: np.ndarray, n_cells: int
    ) -> np.ndarray:
        """Refined-partition cell masses for greedy look-ahead selection.

        Row ``c`` of the returned ``(n_candidates, n_cells)`` array holds
        the probability mass of every cell of the partition induced by
        the pools ``chosen + [candidate_c]`` (cell index bit ``j`` set
        iff the state intersects pool ``j``).
        """

    # ------------------------------------------------------------------
    # statistical analysis (R3)
    # ------------------------------------------------------------------
    @abstractmethod
    def marginals(self) -> np.ndarray:
        """Per-individual posterior infection probabilities."""

    @abstractmethod
    def entropy(self) -> float:
        """Shannon entropy of the posterior (nats)."""

    @abstractmethod
    def top_states(self, k: int) -> List[Tuple[int, float]]:
        """Top-k (mask, probability) pairs, highest probability first."""

    def map_state(self) -> int:
        top = self.top_states(1)
        if not top:
            raise ValueError("empty posterior")
        return top[0][0]

    @abstractmethod
    def num_states(self) -> int:
        """Number of states (or particles) currently represented."""

    @property
    def num_blocks(self) -> int:
        """Storage partitions backing the representation (1 if driver-resident)."""
        return 1

    @abstractmethod
    def collect(self) -> StateSpace:
        """Materialise the belief state as a driver-resident space.

        Backends representing more than 64 individuals raise
        ``ValueError`` — a uint64-masked :class:`StateSpace` cannot hold
        their states.
        """

    def unpersist(self) -> None:
        """Release any engine-held resources (no-op when driver-resident)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_items={self.n_items}, "
            f"states={self.num_states()})"
        )

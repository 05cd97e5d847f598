"""The :class:`Posterior`: lattice + response model + sequential updates.

This is the serial reference implementation of the belief state that
SBGT distributes.  The two share :func:`~repro.util.bits.intersect_count`
and :func:`~repro.lattice.partition.block_down_set_partial`; update,
normalisation and marginals are :mod:`repro.lattice.ops` here and the
cube kernels of :mod:`repro.lattice.partition` there, held together by
the parity tests (marginals, log-evidence and whole screens to 1e-12
across serial, threads and processes).

It answers the three selection statistics the rules of
:mod:`repro.halving` are written against (``down_set_masses``,
``pool_count_hists``, ``refined_cell_masses``) in original cohort
indices, so ``policy.select(posterior, eligible_mask)`` picks the pools
an :class:`~repro.sbgt.session.SBGTSession` would.

A stage costs one lattice-wide ``logsumexp``, one ``intersect_count``
and one marginal sweep, however many readers ask for the marginals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bayes.dilution import ResponseModel
from repro.bayes.evidence import EvidenceLog, TestRecord
from repro.bayes.priors import PriorSpec
from repro.lattice import ops as lops
from repro.lattice.partition import (
    LatticeBlock,
    block_count_hists_partial,
    block_down_set_partial,
    block_refined_cell_partial,
)
from repro.lattice.prune import PruneStats, prune_by_mass
from repro.lattice.states import StateSpace
from repro.util.bits import mask_from_indices, popcount64
from repro.util.numerics import logsumexp

__all__ = ["Posterior", "Classification", "ClassificationReport", "classify_marginals"]

PoolLike = Union[int, Sequence[int]]


class Classification(enum.Enum):
    """Per-individual terminal status of a screen."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNDETERMINED = "undetermined"


#: Relative margin by which a marginal must clear a threshold to be called.
_THRESHOLD_MARGIN = 1e-9


def classify_marginals(
    marginals: Sequence[float], positive_threshold: float, negative_threshold: float
) -> Tuple[Classification, ...]:
    """Threshold marginals into statuses — the one rule every surface uses.

    An individual is POSITIVE when their marginal reaches
    ``positive_threshold`` and NEGATIVE when it falls to
    ``negative_threshold``, each by a relative margin of 1e-9: a marginal
    that *equals* a threshold in exact arithmetic (a uniform prior at
    prevalence 0.01 against the default 0.01) lands an ulp above or
    below it depending on summation order, so it stays UNDETERMINED in
    every backend instead of flipping with the rounding.  Thresholds of
    exactly 0 and 1 still call marginals of exactly 0 and 1.
    """
    if not 0.0 <= negative_threshold < positive_threshold <= 1.0:
        raise ValueError("need 0 <= negative_threshold < positive_threshold <= 1")
    negative_cut = negative_threshold * (1.0 - _THRESHOLD_MARGIN)
    positive_gap = (1.0 - positive_threshold) * (1.0 - _THRESHOLD_MARGIN)
    return tuple(
        Classification.POSITIVE
        if 1.0 - m <= positive_gap
        else Classification.NEGATIVE
        if m <= negative_cut
        else Classification.UNDETERMINED
        for m in marginals
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Thresholded read-out of the posterior marginals."""

    marginals: np.ndarray
    statuses: Tuple[Classification, ...]

    @property
    def n_classified(self) -> int:
        return sum(1 for s in self.statuses if s is not Classification.UNDETERMINED)

    @property
    def all_classified(self) -> bool:
        return self.n_classified == len(self.statuses)

    def positives(self) -> List[int]:
        return [i for i, s in enumerate(self.statuses) if s is Classification.POSITIVE]

    def negatives(self) -> List[int]:
        return [i for i, s in enumerate(self.statuses) if s is Classification.NEGATIVE]

    def undetermined(self) -> List[int]:
        return [i for i, s in enumerate(self.statuses) if s is Classification.UNDETERMINED]

    def undetermined_mask(self) -> int:
        """Bit mask of still-undetermined individuals (policy 'eligible' set)."""
        mask = 0
        for i in self.undetermined():
            mask |= 1 << i
        return mask


def _as_pool_mask(pool: PoolLike) -> int:
    if isinstance(pool, (int, np.integer)):
        mask = int(pool)
        if mask <= 0:
            raise ValueError("pool mask must select at least one individual")
        return mask
    return int(mask_from_indices(pool))


class Posterior:
    """Sequential Bayesian belief state over a cohort's infection pattern.

    Parameters
    ----------
    space:
        Initial (prior) state space; consumed and mutated in place.
    model:
        Response model supplying pooled-test likelihoods.
    track_entropy:
        When true, each update records entropy before/after (costs one
        extra sweep per test; used by information-gain analyses).
    """

    #: Sums over an explicit lattice: selection orders the statistics
    #: with ulp-apart values as ties (:func:`repro.halving.bha.ordering_key`).
    exact = True

    def __init__(
        self,
        space: StateSpace,
        model: ResponseModel,
        track_entropy: bool = False,
    ) -> None:
        self.space = space
        self.model = model
        self.track_entropy = bool(track_entropy)
        self.log = EvidenceLog()
        self._stage = 0
        from repro.bayes.indexmap import CohortIndexMap

        # Contraction bookkeeping (original <-> compact indices); inert
        # until the first settle().
        self._index = CohortIndexMap(space.n_items)
        # What this posterior knows about an array of log-probs holds
        # exactly while ``space.log_probs`` *is* that array: every
        # mutator rebinds the attribute, none writes into the array.
        self._normalized: Optional[np.ndarray] = None
        self._served: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def from_prior(
        cls, prior: PriorSpec, model: ResponseModel, track_entropy: bool = False
    ) -> "Posterior":
        return cls(prior.build_dense(), model, track_entropy)

    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        """Original cohort size (settled individuals still counted)."""
        return self._index.n_items

    @property
    def num_live(self) -> int:
        """Individuals still represented in the lattice."""
        return self._index.num_live

    @property
    def num_tests(self) -> int:
        return self.log.num_tests

    def begin_stage(self) -> int:
        """Advance the stage counter (tests recorded after run together)."""
        self._stage += 1
        return self._stage

    # ------------------------------------------------------------------
    def settle(self, individual: int, as_positive: bool) -> None:
        """Commit a diagnosis and project the individual's bit out.

        The lattice-contraction operation (irreversible — the lattice is
        conditioned on the committed value).  Afterwards the posterior
        keeps answering in original cohort indices, the selection
        statistics included; *pools must not contain settled
        individuals*.
        """
        project = self._index.num_live > 1
        pos = self._index.settle(individual, as_positive)  # validates
        if project:
            self.space = lops.project_out_bit(self.space, pos, as_positive)

    def update(self, pool: PoolLike, outcome: Any) -> TestRecord:
        """Condition on one pooled-test outcome.

        Returns the :class:`TestRecord` appended to the evidence log.
        An outcome the model gives zero probability raises
        ``ValueError`` and changes nothing: lattice, log and marginals
        answer as before the call.
        """
        pool_mask = _as_pool_mask(pool)
        pool_size = pool_mask.bit_count()
        compact_pool = self._index.to_compact_mask(pool_mask)
        log_lik = self.model.log_likelihood_by_count(outcome, pool_size)

        space = self.space
        log_probs, log_mass = lops.conditioned_log_probs(space, compact_pool, log_lik)
        if not math.isfinite(log_mass):
            raise ValueError("observed outcome has zero probability under the model")
        # The mass before is 0 for an array this posterior normalised.
        log_mass_before = (
            0.0 if space.log_probs is self._normalized else logsumexp(space.log_probs)
        )
        ent_before = lops.entropy(space) if self.track_entropy else None
        log_probs -= log_mass
        space.log_probs = self._normalized = log_probs
        ent_after = lops.entropy(space) if self.track_entropy else None

        record = TestRecord(
            stage=self._stage,
            pool_mask=pool_mask,
            pool_size=pool_size,
            outcome=outcome,
            log_predictive=log_mass - log_mass_before,
            entropy_before=ent_before,
            entropy_after=ent_after,
        )
        self.log.append(record)
        return record

    def prune(self, epsilon: float) -> PruneStats:
        """Shrink the support to the ``1 - epsilon`` high-mass core."""
        result = prune_by_mass(self.space, epsilon)
        self.space = result.space
        return result

    # ------------------------------------------------------------------
    # selection statistics (pools in original cohort indices)
    # ------------------------------------------------------------------
    def _compact_pools(self, pool_masks) -> np.ndarray:
        return np.asarray(self._index.to_compact_masks(pool_masks), dtype=np.uint64)

    def _block(self, shift: float = 0.0) -> LatticeBlock:
        """The whole lattice as one kernel block (log-probs less *shift*)."""
        space = self.space
        return LatticeBlock(space.n_items, space.masks, space.log_probs - shift)

    def down_set_masses(self, pool_masks: np.ndarray) -> np.ndarray:
        """P(no positives in pool) per candidate pool (vectorised).

        Weights are exponentiated against the running maximum so the
        result is stable for unnormalised log-probabilities too.
        """
        log_probs = self.space.log_probs
        shift = float(log_probs.max())
        partial = block_down_set_partial(self._block(shift), self._compact_pools(pool_masks))
        return partial / np.exp(log_probs - shift).sum()

    def pool_count_hists(self, candidate_masks: np.ndarray) -> np.ndarray:
        """P(k positives in pool) per candidate, one row each.

        An ``(n_candidates, max_pool_size + 1)`` array; columns beyond a
        pool's size stay zero.
        """
        pools = self._compact_pools(candidate_masks)
        max_size = int(popcount64(pools).max()) if pools.size else 0
        return block_count_hists_partial(
            self._block(), pools, max_size, self.space.log_total_mass
        )

    def refined_cell_masses(
        self, chosen: Sequence[int], candidate_masks: np.ndarray, n_cells: int
    ) -> np.ndarray:
        """Cell masses of the partition ``chosen + [candidate]``, per candidate.

        Row ``c`` of the ``(n_candidates, n_cells)`` result holds the
        mass of every cell (cell index bit ``j`` set iff the state meets
        pool ``j``) — the greedy look-ahead step's statistic.
        """
        return block_refined_cell_partial(
            self._block(),
            tuple(self._compact_pools(chosen).tolist()),
            self._compact_pools(candidate_masks),
            n_cells,
            self.space.log_total_mass,
        )

    # ------------------------------------------------------------------
    # statistical analyses
    # ------------------------------------------------------------------
    def marginals(self) -> np.ndarray:
        """Per-individual infection probability in *original* indices.

        The lattice is swept once per state of ``space.log_probs``;
        :meth:`classify` and the policies read the same sweep, each
        through an array of their own.
        """
        log_probs = self.space.log_probs
        if self._served is None or self._served[0] is not log_probs:
            self._served = (log_probs, lops.marginals(self.space))
        compact = self._served[1]
        if not self._index.any_settled:
            return compact.copy()
        full = np.empty(self.n_items, dtype=np.float64)
        for orig, positive in self._index.settled.items():
            full[orig] = 1.0 if positive else 0.0
        for pos, orig in enumerate(self._index.live):
            full[orig] = compact[pos]
        return full

    def entropy(self) -> float:
        return lops.entropy(self.space)

    def map_state(self) -> int:
        compact = lops.map_state(self.space)
        if not self._index.any_settled:
            return compact
        return (
            self._index.to_original_mask(compact)
            | self._index.settled_positive_mask()
        )

    def top_states(self, k: int) -> List[Tuple[int, float]]:
        return lops.top_states(self.space, k)

    def down_set_mass(self, pool: PoolLike) -> float:
        return lops.down_set_mass(
            self.space, self._index.to_compact_mask(_as_pool_mask(pool))
        )

    def classify(
        self, positive_threshold: float = 0.99, negative_threshold: float = 0.01
    ) -> ClassificationReport:
        """Threshold the marginals into a per-individual report.

        An individual is called positive when their marginal infection
        probability reaches ``positive_threshold``, negative when it
        falls to ``negative_threshold``, undetermined otherwise (see
        :func:`classify_marginals` for the behaviour at the edge).
        """
        marg = self.marginals()
        statuses = classify_marginals(marg, positive_threshold, negative_threshold)
        return ClassificationReport(marginals=marg, statuses=statuses)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Posterior(n_items={self.n_items}, states={self.space.size}, "
            f"tests={self.num_tests})"
        )

"""The SBGT session: a full sequential screen on the distributed lattice.

Runs the same stage protocol as the serial driver
(:func:`repro.workflows.classify.run_screen`) — classify, select, assay,
update — but every lattice touch goes through the engine.  The policy
objects are the *same* classes the serial driver takes and are called
the same way, ``policy.select(session, eligible_mask)``: the session
answers the marginals and the three selection statistics the rules of
:mod:`repro.halving` read, from whatever backend ``self.lattice`` is.

With ``SBGTConfig(compact_classified=True)`` the session additionally
performs *lattice contraction*: each settled diagnosis is conditioned on
and its bit projected out, so the state space halves per settled
individual.  Externally everything stays in original cohort indices —
the session owns the live/settled bookkeeping and translates pool masks
on the way in (the backend speaks its own compact bits).

Produces the same :class:`~repro.workflows.classify.ScreenResult` shape,
so accuracy/efficiency tables can mix serial and distributed rows.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence

import numpy as np

from repro.bayes.dilution import ResponseModel
from repro.bayes.evidence import EvidenceLog, TestRecord
from repro.bayes.indexmap import CohortIndexMap
from repro.bayes.posterior import Classification, ClassificationReport, classify_marginals
from repro.bayes.priors import PriorSpec
from repro.engine.context import Context
from repro.halving.policy import SelectionPolicy
from repro.sbgt.analyzer import DistributedAnalyzer
from repro.sbgt.config import SBGTConfig
from repro.sbgt.distributed_lattice import DistributedLattice, PruneStats
from repro.simulate.population import Cohort, make_cohort
from repro.simulate.testing import TestLab
from repro.util.rng import RngLike, as_rng
from repro.workflows.classify import ScreenResult
from repro.workflows.options import ScreenOptions

__all__ = ["SBGTSession"]


class SBGTSession:
    """Distributed Bayesian group-testing session for one cohort."""

    def __init__(
        self,
        ctx: Optional[Context],
        prior: PriorSpec,
        model: ResponseModel,
        config: Optional[SBGTConfig] = None,
    ) -> None:
        self.ctx = ctx
        self.prior = prior
        self.model = model
        self.config = config or SBGTConfig()
        if self.config.backend == "dense" and ctx is None:
            raise ValueError("the dense backend needs an engine Context (ctx)")
        #: Log prior mass outside a rank-restricted support (−inf = dense).
        self.log_discarded_prior = -np.inf
        from repro.workflows.payloads import make_posterior

        self.lattice = make_posterior(
            self.config.backend,
            prior=prior,
            ctx=ctx,
            num_blocks=self.config.num_blocks,
            max_positives=self.config.max_positives,
            sparse_floor=self.config.sparse_floor,
            max_states=self.config.max_states,
            num_particles=self.config.num_particles,
            ess_threshold=self.config.ess_threshold,
            seed=self.config.backend_seed,
        )
        self.log_discarded_prior = getattr(self.lattice, "log_discarded_prior", -np.inf)
        self.analyzer = DistributedAnalyzer(self.lattice)
        self.log = EvidenceLog()
        self._stage = 0
        self._marginals_cache: Optional[np.ndarray] = None
        # Lattice-contraction bookkeeping (original <-> compact indices).
        self._index = CohortIndexMap(prior.n_items)

    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        return self.prior.n_items

    @property
    def num_tests(self) -> int:
        return self.log.num_tests

    @property
    def num_live(self) -> int:
        """Individuals still represented in the lattice."""
        return self._index.num_live

    def begin_stage(self) -> int:
        self._stage += 1
        return self._stage

    def _invalidate(self) -> None:
        self._marginals_cache = None

    # ------------------------------------------------------------------
    # belief-state API (mirrors repro.bayes.Posterior)
    # ------------------------------------------------------------------
    def marginals(self) -> np.ndarray:
        """Posterior infection probability per *original* individual."""
        if self._marginals_cache is None:
            compact = self.analyzer.marginals()
            full = np.empty(self.n_items, dtype=np.float64)
            for orig, positive in self._index.settled.items():
                full[orig] = 1.0 if positive else 0.0
            for pos, orig in enumerate(self._index.live):
                full[orig] = compact[pos]
            self._marginals_cache = full
        return self._marginals_cache

    def entropy(self) -> float:
        """Posterior entropy (settled individuals contribute zero)."""
        return self.analyzer.entropy()

    def map_state(self) -> int:
        """Most probable infection pattern, in original indices."""
        compact = self.analyzer.map_state()
        return self._index.to_original_mask(compact) | self._index.settled_positive_mask()

    def classify(
        self,
        positive_threshold: Optional[float] = None,
        negative_threshold: Optional[float] = None,
    ) -> ClassificationReport:
        pos = self.config.positive_threshold if positive_threshold is None else positive_threshold
        neg = self.config.negative_threshold if negative_threshold is None else negative_threshold
        marg = self.marginals()
        return ClassificationReport(marginals=marg, statuses=classify_marginals(marg, pos, neg))

    def update(self, pool: Any, outcome: Any) -> TestRecord:
        """Condition the distributed lattice on one pooled outcome.

        *pool* is given in original cohort indices (mask or index
        iterable) and must not contain settled individuals.
        """
        if isinstance(pool, (int, np.integer)):
            pool_mask = int(pool)
        else:
            pool_mask = 0
            for i in pool:
                pool_mask |= 1 << int(i)
        if pool_mask <= 0:
            raise ValueError("pool must contain at least one individual")
        pool_size = bin(pool_mask).count("1")
        compact_pool = self._index.to_compact_mask(pool_mask)
        log_lik = self.model.log_likelihood_by_count(outcome, pool_size)

        ent_before = self.entropy() if self.config.track_entropy else None
        log_pred = self.lattice.update(compact_pool, log_lik)
        self._invalidate()
        ent_after = self.entropy() if self.config.track_entropy else None

        record = TestRecord(
            stage=self._stage,
            pool_mask=pool_mask,
            pool_size=pool_size,
            outcome=outcome,
            log_predictive=log_pred,
            entropy_before=ent_before,
            entropy_after=ent_after,
        )
        self.log.append(record)
        return record

    def prune(self) -> Optional[PruneStats]:
        """Apply the configured pruning + rebalance policy."""
        if self.config.prune_epsilon <= 0.0:
            return None
        if self._stage % self.config.prune_interval != 0:
            return None
        stats = self.lattice.prune(self.config.prune_epsilon)
        if self.lattice.num_states() <= self.config.rebalance_states:
            self.lattice.rebalance()
        self._invalidate()
        return stats

    # ------------------------------------------------------------------
    # lattice contraction
    # ------------------------------------------------------------------
    def settle(self, individual: int, as_positive: bool) -> None:
        """Commit a diagnosis and project the individual out.

        Irreversible: the lattice is conditioned on the committed value.
        The final live individual is never projected (a lattice needs at
        least one bit); their diagnosis is still recorded.
        """
        project = self._index.num_live > 1
        pos = self._index.settle(individual, as_positive)  # validates
        if project:
            self.lattice.project_out_bit(pos, as_positive)
        self._invalidate()

    def _compact_settled(self, report: ClassificationReport) -> None:
        if not self.config.compact_classified:
            return
        for i, status in enumerate(report.statuses):
            if status is Classification.UNDETERMINED or self._index.is_settled(i):
                continue
            if self._index.num_live == 0:
                break
            self.settle(i, status is Classification.POSITIVE)

    # ------------------------------------------------------------------
    # selection statistics (pools in original cohort indices)
    # ------------------------------------------------------------------
    @property
    def exact(self) -> bool:
        """Whether the backend's statistics are exact lattice sums."""
        return self.lattice.exact

    def down_set_masses(self, pool_masks: np.ndarray) -> np.ndarray:
        """P(no positives in pool) per candidate pool."""
        return self.lattice.down_set_masses(self._index.to_compact_masks(pool_masks))

    def pool_count_hists(self, candidate_masks: np.ndarray) -> np.ndarray:
        """P(k positives in pool) per candidate, one row each."""
        return self.lattice.pool_count_hists(self._index.to_compact_masks(candidate_masks))

    def refined_cell_masses(
        self, chosen: Sequence[int], candidate_masks: np.ndarray, n_cells: int
    ) -> np.ndarray:
        """Cell masses of the partition ``chosen + [candidate]``, per candidate."""
        return self.lattice.refined_cell_masses(
            [self._index.to_compact_mask(pool) for pool in chosen],
            self._index.to_compact_masks(candidate_masks),
            n_cells,
        )

    # ------------------------------------------------------------------
    # full screen
    # ------------------------------------------------------------------
    def run_screen(
        self,
        policy: SelectionPolicy,
        rng: RngLike = None,
        cohort: Optional[Cohort] = None,
        options: Optional[ScreenOptions] = None,
    ) -> ScreenResult:
        """Run the classify/select/assay/update loop to completion.

        ``options`` (a :class:`~repro.workflows.options.ScreenOptions`)
        overrides the corresponding :class:`SBGTConfig` fields for this
        screen only.
        """
        saved_config = self.config
        if options is not None:
            self.config = self.config.with_(**dataclasses.asdict(options))
        try:
            return self._run_screen_loop(policy, rng, cohort)
        finally:
            self.config = saved_config

    def _run_screen_loop(self, policy, rng, cohort) -> ScreenResult:
        from repro.engine.tracing import ensure_trace
        from repro.sbgt.stepper import ScreenStepper

        gen = as_rng(rng)
        if cohort is None:
            cohort = make_cohort(self.prior, gen)
        lab = TestLab(self.model, cohort.truth_mask, gen)
        # Correlate the whole screen under one trace_id (inheriting the
        # caller's — e.g. a serve request — when one is already open).
        with ensure_trace(name="run_screen"):
            stepper = ScreenStepper(self, policy)
            while not stepper.done:
                pools = stepper.next_pools()
                stepper.submit_outcomes([lab.run(pool) for pool in pools])
        return stepper.result(cohort)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Checkpoint the session (lattice + evidence trail) to ``.npz``.

        The distributed lattice is collected to the driver for the
        write; contraction must not have started (same restriction as
        the serial checkpoint).  Restore with :meth:`load`.
        """
        from repro.bayes.posterior import Posterior
        from repro.lattice.serialize import save_posterior

        if self._index.any_settled:
            raise ValueError("checkpointing a contracted session is not supported")
        snapshot = Posterior(self.lattice.collect(), self.model,
                             track_entropy=self.config.track_entropy)
        snapshot._stage = self._stage
        snapshot.log = self.log
        save_posterior(snapshot, path)

    @classmethod
    def load(
        cls,
        ctx: Context,
        path,
        prior: PriorSpec,
        model: ResponseModel,
        config: Optional[SBGTConfig] = None,
    ) -> "SBGTSession":
        """Restore a checkpointed session onto a (possibly new) context.

        *prior* and *model* are configuration and must match what the
        checkpointed screen was using; the belief state itself comes
        from the file.
        """
        from repro.lattice.serialize import load_posterior

        if config is not None and config.backend != "dense":
            raise ValueError("checkpoint restore is only supported for the dense backend")
        snapshot = load_posterior(path, model)
        if snapshot.space.n_items != prior.n_items:
            raise ValueError("checkpoint cohort size does not match the prior")
        session = cls.__new__(cls)
        session.ctx = ctx
        session.prior = prior
        session.model = model
        session.config = config or SBGTConfig()
        session.log_discarded_prior = -np.inf
        session.lattice = DistributedLattice.from_state_space(
            ctx, snapshot.space, session.config.num_blocks
        )
        session.analyzer = DistributedAnalyzer(session.lattice)
        session.log = snapshot.log
        session._stage = snapshot._stage
        session._marginals_cache = None
        session._index = CohortIndexMap(prior.n_items)
        return session

    def close(self) -> None:
        """Release cached lattice blocks (the context stays usable)."""
        self.lattice.unpersist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SBGTSession(n_items={self.n_items}, live={self.num_live}, "
            f"blocks={self.lattice.num_blocks}, tests={self.num_tests})"
        )

"""The one stage loop: every screen, batch or interactive, runs here.

:class:`ScreenStepper` owns stage sequencing, termination checks,
pruning, classification and compaction over an
:class:`~repro.sbgt.session.SBGTSession`, while the caller supplies
outcomes for the pools it proposes.  The batch path
(:meth:`SBGTSession.run_screen`, and through it ``run_screen`` and
``run_screen_from_space``) is a thin loop
over a stepper plus a virtual lab; the serving layer and a real
laboratory feed it outcomes from outside.  Interactive and batch screens
are the *same code* and produce byte-identical classifications from
equal seeds.

Protocol::

    stepper = ScreenStepper(session, policy)
    while not stepper.done:
        pools = stepper.next_pools()          # original-index masks
        stepper.submit_outcomes([assay(p) for p in pools])
    report = stepper.report                   # final ClassificationReport
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, List, Optional, Sequence

from repro.bayes.evidence import TestRecord
from repro.engine.tracing import current_trace, trace_scope
from repro.halving.policy import SelectionPolicy
from repro.metrics.classification import evaluate_classification
from repro.metrics.efficiency import efficiency_report
from repro.obs.tracer import PHASE_SELECTION, current_tracer, trace_phase
from repro.simulate.population import Cohort

__all__ = ["ScreenStepper"]


class ScreenStepper:
    """Drives one screen on an :class:`~repro.sbgt.session.SBGTSession`.

    The stepper advances in stages: :meth:`next_pools` proposes the
    coming stage's pools (idempotent until outcomes arrive), then
    :meth:`submit_outcomes` conditions the lattice on the assay results
    and re-classifies.  ``done`` flips when every individual is settled
    or the stage budget runs out.

    Parameters
    ----------
    session:
        The live :class:`~repro.sbgt.session.SBGTSession`; its
        ``config`` supplies thresholds, stage budget and pruning.
    policy:
        Selection policy (reset on construction, exactly like the
        batch loop did).
    """

    def __init__(self, session, policy: SelectionPolicy) -> None:
        self.session = session
        self.policy = policy
        policy.reset()
        self.stages_used = 0
        self.exhausted_budget = False
        self.num_tests = 0
        self.num_samples = 0
        self._pending: Optional[List[int]] = None
        self._done = False
        self.report = session.classify()
        session._compact_settled(self.report)
        self._check_done()

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the screen has terminated (no more pools)."""
        return self._done

    @property
    def pending_pools(self) -> Optional[List[int]]:
        """Pools proposed but not yet answered (None when none are out)."""
        return list(self._pending) if self._pending is not None else None

    def _stage_scope(self, step: str):
        """Child span for one stage step, only when a trace is active.

        Keeps every engine event of the step under the screen's (or
        request's) trace_id with a per-stage span, without minting
        orphan root traces for uncorrelated callers.
        """
        if current_trace() is None:
            return nullcontext()
        return trace_scope(name=f"stage-{self.stages_used + 1}-{step}")

    def _check_done(self) -> None:
        # Mirrors the batch loop's check order: full classification ends
        # the screen, then the stage budget.
        if self.report.all_classified:
            self._done = True
            return
        if self.stages_used >= self.session.config.max_stages:
            self.exhausted_budget = True
            self._done = True

    # ------------------------------------------------------------------
    def next_pools(self) -> List[int]:
        """Propose the coming stage's pools (original-index masks).

        Returns ``[]`` once the screen is done.  Calling again before
        outcomes are submitted returns the same proposal (idempotent),
        so a disconnecting client can safely re-fetch.
        """
        if self._done:
            return []
        if self._pending is None:
            eligible = self.report.undetermined_mask()
            with self._stage_scope("select"), trace_phase(
                PHASE_SELECTION, f"select_{self.policy.name}"
            ):
                pools = self.policy.select(self.session, eligible)
            if not pools:
                raise RuntimeError(f"policy {self.policy.name} proposed no pools")
            self._pending = [int(p) for p in pools]
        return list(self._pending)

    def submit_outcomes(self, outcomes: Sequence[Any]) -> List[TestRecord]:
        """Condition on one stage's assay results, in proposal order."""
        if self._done:
            raise RuntimeError("screen already finished")
        if self._pending is None:
            raise RuntimeError("no pools outstanding; call next_pools() first")
        if len(outcomes) != len(self._pending):
            raise ValueError(
                f"expected {len(self._pending)} outcome(s) for the proposed "
                f"pools, got {len(outcomes)}"
            )
        session = self.session
        session.begin_stage()
        tracer = current_tracer()
        if tracer is not None:
            tracer.begin_screen_stage(session._stage)
        records: List[TestRecord] = []
        # classify() reads the marginals after the last update, unless a
        # prune changes the lattice first: no other update serves them.
        served = -1 if session.prunes_this_stage() else len(self._pending) - 1
        with self._stage_scope("update"):
            for k, (pool, outcome) in enumerate(zip(self._pending, outcomes)):
                records.append(session.update(pool, outcome, serve_marginals=k == served))
                self.num_tests += 1
                self.num_samples += bin(pool).count("1")
            prune_stats = session.prune()
            self.report = session.classify()
            session._compact_settled(self.report)
        self.stages_used += 1
        if tracer is not None:
            drop = None
            if (
                records
                and records[0].entropy_before is not None
                and records[-1].entropy_after is not None
            ):
                drop = records[0].entropy_before - records[-1].entropy_after
            tracer.end_screen_stage(
                pools_proposed=len(self._pending),
                tests_run=len(records),
                entropy_drop=drop,
                states_pruned=prune_stats.dropped_states if prune_stats else 0,
            )
        self._pending = None
        self._check_done()
        return records

    # ------------------------------------------------------------------
    def result(self, cohort: Cohort):
        """Score the finished screen against *cohort*'s ground truth."""
        from repro.workflows.classify import ScreenResult

        if not self._done:
            raise RuntimeError("screen still in progress")
        confusion = evaluate_classification(self.report, cohort.truth_mask)
        eff = efficiency_report(
            cohort.n_items, self.num_tests, self.stages_used, self.num_samples
        )
        return ScreenResult(
            cohort=cohort,
            report=self.report,
            confusion=confusion,
            efficiency=eff,
            posterior=self.session,  # duck-typed: exposes marginals/entropy/log
            stages_used=self.stages_used,
            exhausted_budget=self.exhausted_budget,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._done else f"stage {self.stages_used}"
        return f"ScreenStepper(policy={self.policy.name}, {state}, tests={self.num_tests})"

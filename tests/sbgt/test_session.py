"""SBGTSession: full distributed screens and serial agreement."""

import numpy as np
import pytest

from repro.bayes.dilution import DilutionErrorModel, PerfectTest
from repro.bayes.priors import PriorSpec
from repro.halving.policy import (
    BHAPolicy,
    DorfmanPolicy,
    IndividualTestingPolicy,
    InformationGainPolicy,
    LookaheadPolicy,
)
from repro.sbgt.config import SBGTConfig
from repro.sbgt.session import SBGTSession
from repro.sbgt.stepper import ScreenStepper
from repro.simulate.population import make_cohort
from repro.simulate.testing import TestLab
from repro.util.rng import as_rng
from repro.workflows.classify import run_screen


@pytest.fixture
def prior():
    return PriorSpec.sampled(9, 0.07, rng=5)


@pytest.fixture
def model():
    return DilutionErrorModel(0.98, 0.995, 0.3)


class TestSessionBasics:
    def test_initial_marginals_equal_prior(self, ctx, prior, model):
        session = SBGTSession(ctx, prior, model)
        assert np.allclose(session.marginals(), prior.risks, atol=1e-10)
        session.close()

    def test_update_invalidates_marginal_cache(self, ctx, prior, model):
        session = SBGTSession(ctx, prior, model)
        before = session.marginals().copy()
        session.update([0, 1], True)
        assert not np.allclose(session.marginals(), before)
        session.close()

    def test_update_accepts_indices_and_masks(self, ctx, prior, model):
        s1 = SBGTSession(ctx, prior, model)
        s2 = SBGTSession(ctx, prior, model)
        s1.update([0, 2], False)
        s2.update(0b101, False)
        assert np.allclose(s1.marginals(), s2.marginals(), atol=1e-12)
        s1.close()
        s2.close()

    def test_empty_pool_rejected(self, ctx, prior, model):
        session = SBGTSession(ctx, prior, model)
        with pytest.raises(ValueError):
            session.update(0, False)
        session.close()

    def test_evidence_log_populated(self, ctx, prior, model):
        session = SBGTSession(ctx, prior, model)
        session.begin_stage()
        session.update([0, 1, 2], False)
        assert session.num_tests == 1
        assert session.log.records[0].stage == 1
        session.close()

    def test_entropy_tracking_config(self, ctx, prior, model):
        session = SBGTSession(ctx, prior, model, SBGTConfig(track_entropy=True))
        rec = session.update([0], False)
        assert rec.entropy_before is not None and rec.entropy_after is not None
        session.close()


class TestSerialAgreement:
    """Distributed screens must replay the serial reference exactly."""

    @pytest.mark.parametrize(
        "policy_factory",
        [
            BHAPolicy,
            lambda: LookaheadPolicy(2),
            IndividualTestingPolicy,
            lambda: DorfmanPolicy(3),
            InformationGainPolicy,
        ],
        ids=["bha", "lookahead", "individual", "dorfman", "infogain"],
    )
    def test_full_screen_matches_serial(self, ctx, prior, model, policy_factory):
        cohort = make_cohort(prior, rng=21)
        serial = run_screen(
            prior, model, policy_factory(), rng=77, cohort=cohort,
            config=SBGTConfig(max_stages=40),
        )
        session = SBGTSession(ctx, prior, model, SBGTConfig(max_stages=40))
        dist = session.run_screen(policy_factory(), rng=77, cohort=cohort)
        assert dist.efficiency.num_tests == serial.efficiency.num_tests
        assert dist.stages_used == serial.stages_used
        assert dist.report.statuses == serial.report.statuses
        assert np.allclose(dist.report.marginals, serial.report.marginals, atol=1e-8)
        session.close()

    def test_screen_with_pruning_still_accurate(self, ctx, model):
        prior = PriorSpec.uniform(10, 0.05)
        cohort = make_cohort(prior, rng=3)
        session = SBGTSession(
            ctx, prior, model, SBGTConfig(prune_epsilon=1e-9, max_stages=40)
        )
        result = session.run_screen(BHAPolicy(), rng=4, cohort=cohort)
        assert result.accuracy == 1.0
        session.close()

    def test_perfect_test_classifies_everyone(self, ctx):
        prior = PriorSpec.uniform(8, 0.1)
        session = SBGTSession(ctx, prior, PerfectTest())
        result = session.run_screen(BHAPolicy(), rng=0)
        assert result.report.all_classified
        assert result.accuracy == 1.0
        assert not result.exhausted_budget
        session.close()

    def test_budget_exhaustion_reported(self, ctx, prior, model):
        session = SBGTSession(ctx, prior, model, SBGTConfig(max_stages=1))
        result = session.run_screen(BHAPolicy(), rng=11)
        assert result.stages_used <= 1
        if not result.report.all_classified:
            assert result.exhausted_budget
        session.close()

    def test_efficiency_beats_individual_at_low_prevalence(self, ctx):
        prior = PriorSpec.uniform(12, 0.02)
        session = SBGTSession(ctx, prior, PerfectTest())
        bha = session.run_screen(BHAPolicy(), rng=9)
        assert bha.tests_per_individual < 1.0
        session.close()


def test_hybrid_policy_runs_distributed(ctx, model):
    """The hybrid's halving stages read the session like any belief:
    same pools, in the same order, as the serial driver."""
    from repro.halving.hybrid import HybridPolicy

    prior = PriorSpec.sampled(8, 0.12, rng=3)
    cohort = make_cohort(prior, rng=2)
    assert cohort.truth_mask  # someone is positive, so halving stages follow the grid
    for compact in (False, True):
        serial = run_screen(
            prior, model, HybridPolicy(), rng=13, cohort=cohort, config=SBGTConfig(max_stages=40)
        )
        session = SBGTSession(
            ctx, prior, model, SBGTConfig(max_stages=40, compact_classified=compact)
        )
        dist = session.run_screen(HybridPolicy(), rng=13, cohort=cohort)
        pools = [r.pool_mask for r in session.log.records]
        assert pools == [r.pool_mask for r in serial.posterior.log.records]
        assert dist.stages_used == serial.stages_used > 1
        assert dist.report.statuses == serial.report.statuses
        session.close()


class TestJobCounts:
    """What a screen costs the engine."""

    def test_start_is_one_job_and_a_bha_stage_two(self, serial_ctx, jobs, prior, model):
        session = SBGTSession(serial_ctx, prior, model)
        session.classify()
        assert jobs() == 1  # build + normalise + marginals
        stepper = ScreenStepper(session, BHAPolicy())
        lab = TestLab(model, make_cohort(prior, rng=21).truth_mask, as_rng(77))
        assert jobs() == 0
        stages = 0
        while not stepper.done and stages < 10:  # stay short of the lineage checkpoint
            pools = stepper.next_pools()
            assert jobs() == 1  # down-set masses of the candidates
            stepper.submit_outcomes([lab.run(pool) for pool in pools])
            assert jobs() == 1  # update + normalise + marginals, which classify reads
            stages += 1
        assert stages >= 3
        session.close()

    def test_marginals_after_update_run_no_job(self, serial_ctx, jobs, prior, model):
        session = SBGTSession(serial_ctx, prior, model)
        jobs()
        session.update([0, 1, 2], False)
        assert jobs() == 1
        session.marginals()
        session.marginals()
        session.lattice.marginals()
        assert jobs() == 0
        session.close()

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3], ids=["unpruned", "pruned"])
    def test_a_multi_pool_stage_folds_the_marginals_at_most_once(
        self, serial_ctx, jobs, prior, model, monkeypatch, epsilon
    ):
        """Only the update classify() reads after serves the marginals.

        Every update but a stage's last sums its mass alone; so does the
        last when a prune follows, and classify() then reads the pruned
        lattice's marginals with one job of its own.
        """
        from repro.sbgt import distributed_lattice

        served = []
        kernel = distributed_lattice.block_summed_mass_marginals

        def recording(block, need_marginals=True):
            served.append(need_marginals)
            return kernel(block, need_marginals)

        monkeypatch.setattr(distributed_lattice, "block_summed_mass_marginals", recording)
        config = SBGTConfig(num_blocks=1, prune_epsilon=epsilon)
        session = SBGTSession(serial_ctx, prior, model, config)
        stepper = ScreenStepper(session, IndividualTestingPolicy())
        lab = TestLab(model, make_cohort(prior, rng=21).truth_mask, as_rng(77))
        pools = stepper.next_pools()
        assert len(pools) > 1
        jobs()
        stepper.submit_outcomes([lab.run(pool) for pool in pools])
        if epsilon:
            assert served == [False] * len(pools)
        else:
            assert served == [False] * (len(pools) - 1) + [True]
            assert jobs() == len(pools)  # the updates; classify() reads the last one's
        session.close()

    @pytest.mark.parametrize("epsilon,stage_jobs", [
        (0.0, ["tree_aggregate"]),  # update + normalise + marginals
        (1e-3, [
            "tree_aggregate",  # update + normalise (the prune follows: no marginals)
            "aggregate",  # log-prob range and state count
            "tree_aggregate",  # mass and state-count histogram (the kept count)
            "tree_aggregate",  # filter + renormalise
            "collect", "count",  # rebalance: folds the offset into the log-probs
            "tree_aggregate",  # marginals, which classify reads
        ]),
    ], ids=["unpruned", "pruned"])
    def test_a_bha_stage_names_its_jobs(self, serial_ctx, prior, model, epsilon, stage_jobs):
        from repro.engine.listener import JobStart, RecordingListener

        rec = serial_ctx.add_listener(RecordingListener())
        try:
            session = SBGTSession(serial_ctx, prior, model, SBGTConfig(prune_epsilon=epsilon))
            stepper = ScreenStepper(session, BHAPolicy())
            lab = TestLab(model, make_cohort(prior, rng=21).truth_mask, as_rng(77))
            for _ in range(3):
                rec.clear()
                pools = stepper.next_pools()
                assert [j.description for j in rec.of_type(JobStart)] == ["tree_aggregate"]
                rec.clear()
                stepper.submit_outcomes([lab.run(pool) for pool in pools])
                assert [j.description for j in rec.of_type(JobStart)] == stage_jobs
            session.close()
        finally:
            serial_ctx.remove_listener(rec)

    def test_compaction_is_one_job_per_settled_individual(self, serial_ctx, jobs, prior, model):
        session = SBGTSession(serial_ctx, prior, model, SBGTConfig(compact_classified=True))
        jobs()
        session.settle(2, False)
        session.settle(5, True)
        assert jobs() == 2
        session.marginals()
        assert jobs() == 0
        session.close()

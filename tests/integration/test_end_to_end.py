"""Cross-layer integration: scenarios, modes, serial/distributed parity."""

import numpy as np
import pytest

from repro import (
    BHAPolicy,
    Context,
    DorfmanPolicy,
    IndividualTestingPolicy,
    LookaheadPolicy,
    PriorSpec,
    SBGTConfig,
    SBGTSession,
    get_scenario,
    make_cohort,
    run_screen,
)
from repro.bayes.dilution import DilutionErrorModel, PerfectTest


class TestScenarios:
    @pytest.mark.parametrize("name", ["community", "outbreak", "hospital"])
    def test_serial_screen_completes(self, name):
        prior, model = get_scenario(name).build(10, rng=1)
        result = run_screen(prior, model, BHAPolicy(), rng=2, config=SBGTConfig(max_stages=60))
        assert result.efficiency.num_tests > 0
        assert result.confusion.n_items == 10

    @pytest.mark.parametrize("name", ["community", "outbreak"])
    def test_distributed_matches_serial(self, ctx, name):
        prior, model = get_scenario(name).build(9, rng=3)
        cohort = make_cohort(prior, rng=4)
        serial = run_screen(
            prior, model, BHAPolicy(), rng=5, cohort=cohort, config=SBGTConfig(max_stages=60)
        )
        session = SBGTSession(ctx, prior, model, SBGTConfig(max_stages=60))
        dist = session.run_screen(BHAPolicy(), rng=5, cohort=cohort)
        assert dist.report.statuses == serial.report.statuses
        assert dist.efficiency.num_tests == serial.efficiency.num_tests
        session.close()


class TestExecutorModeParity:
    @pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
    def test_sbgt_screen_identical_across_modes(self, mode):
        prior = PriorSpec.sampled(8, 0.1, rng=7)
        model = DilutionErrorModel(0.98, 0.99, 0.3)
        cohort = make_cohort(prior, rng=8)
        with Context(mode=mode, parallelism=2) as ctx:
            session = SBGTSession(ctx, prior, model, SBGTConfig(max_stages=40))
            result = session.run_screen(BHAPolicy(), rng=9, cohort=cohort)
            # Serial reference as the mode-independent oracle.
            serial = run_screen(
                prior, model, BHAPolicy(), rng=9, cohort=cohort,
                config=SBGTConfig(max_stages=40),
            )
            assert result.report.statuses == serial.report.statuses
            assert result.efficiency.num_tests == serial.efficiency.num_tests


class TestPolicyOrdering:
    """The qualitative results the paper's motivation rests on."""

    def test_policy_cost_ordering_low_prevalence(self):
        prior = PriorSpec.uniform(12, 0.02)
        costs = {}
        for policy_factory in (BHAPolicy, lambda: DorfmanPolicy(6), IndividualTestingPolicy):
            total = 0
            for seed in range(6):
                res = run_screen(prior, PerfectTest(), policy_factory(), rng=seed)
                total += res.efficiency.num_tests
            costs[res.posterior.model.__class__.__name__ + str(policy_factory)] = total
        values = list(costs.values())
        bha, dorfman, individual = values
        assert bha <= dorfman <= individual

    def test_lookahead_trades_tests_for_stages(self):
        prior = PriorSpec.uniform(10, 0.05)
        bha_stages = bha_tests = la_stages = la_tests = 0
        for seed in range(6):
            cohort = make_cohort(prior, rng=100 + seed)
            b = run_screen(prior, PerfectTest(), BHAPolicy(), rng=seed, cohort=cohort)
            l = run_screen(
                prior, PerfectTest(), LookaheadPolicy(3), rng=seed, cohort=cohort
            )
            bha_stages += b.stages_used
            bha_tests += b.efficiency.num_tests
            la_stages += l.stages_used
            la_tests += l.efficiency.num_tests
        assert la_stages < bha_stages  # fewer lab round-trips
        assert la_tests >= bha_tests  # at the price of some extra tests

    def test_dilution_increases_cost(self):
        prior = PriorSpec.uniform(10, 0.05)
        mild_total = strong_total = 0
        for seed in range(5):
            cohort = make_cohort(prior, rng=200 + seed)
            mild = run_screen(
                prior, DilutionErrorModel(0.99, 0.999, 0.05), BHAPolicy(),
                rng=seed, cohort=cohort, config=SBGTConfig(max_stages=80),
            )
            strong = run_screen(
                prior, DilutionErrorModel(0.99, 0.999, 1.2), BHAPolicy(),
                rng=seed, cohort=cohort, config=SBGTConfig(max_stages=80),
            )
            mild_total += mild.efficiency.num_tests
            strong_total += strong.efficiency.num_tests
        assert strong_total >= mild_total


class TestRestrictedLatticeWorkflow:
    def test_large_cohort_via_restriction(self, ctx):
        from repro.sbgt.distributed_lattice import DistributedLattice

        prior = PriorSpec.uniform(20, 0.01)
        dl = DistributedLattice.from_restricted_prior(ctx, prior, 3, 8)
        log_disc = dl.log_discarded_prior
        # Support is C(20,0..3) = 1 + 20 + 190 + 1140
        assert dl.num_states() == 1351
        assert np.exp(log_disc) < 1e-3
        marg = dl.marginals()
        assert np.allclose(marg, 0.01, atol=5e-3)
        dl.unpersist()


class TestLongLivedContext:
    def test_thirty_screens_leave_no_per_rdd_driver_state(self):
        """Regression: every ``unpersist`` used to add an entry to a
        context-wide cache-generation table that nothing removed — one
        per lattice RDD, for the life of a ``repro serve`` process."""

        def container_sizes(ctx):
            owners = (ctx, ctx._scheduler, ctx.block_store, ctx.executor)
            return {
                (type(owner).__name__, attr): len(value)
                for owner in owners
                for attr, value in vars(owner).items()
                if isinstance(value, (dict, list, set))
            }

        prior = PriorSpec.uniform(12, 0.05)
        model = DilutionErrorModel(0.98, 0.99, 0.3)
        with Context(mode="threads", parallelism=2) as ctx:
            before = container_sizes(ctx)
            for seed in range(30):
                session = SBGTSession(
                    ctx, prior, model, SBGTConfig(max_stages=40, compact_classified=True)
                )
                session.run_screen(BHAPolicy(), rng=seed)
                session.close()
            assert container_sizes(ctx) == before

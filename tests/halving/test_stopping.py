"""Loss-based stopping."""

import pytest

from repro.bayes.dilution import BinaryErrorModel, PerfectTest
from repro.bayes.priors import PriorSpec
from repro.halving.policy import BHAPolicy
from repro.halving.stopping import LossBasedStopping, terminal_loss
from repro.workflows.classify import run_screen
from repro.workflows.options import ScreenOptions


class TestTerminalLoss:
    def test_certain_marginals_zero_loss(self):
        loss, calls = terminal_loss([0.0, 1.0], fp_cost=1.0, fn_cost=10.0)
        assert loss == 0.0
        assert calls == [False, True]

    def test_maximum_uncertainty(self):
        loss, _ = terminal_loss([0.5], fp_cost=1.0, fn_cost=1.0)
        assert loss == pytest.approx(0.5)

    def test_asymmetric_costs_shift_calls(self):
        # fn 10x fp: even a 0.2 marginal is called positive.
        _, calls = terminal_loss([0.2], fp_cost=1.0, fn_cost=10.0)
        assert calls == [True]
        _, calls_sym = terminal_loss([0.2], fp_cost=1.0, fn_cost=1.0)
        assert calls_sym == [False]

    def test_additive_over_individuals(self):
        l1, _ = terminal_loss([0.3], 1.0, 2.0)
        l2, _ = terminal_loss([0.1], 1.0, 2.0)
        l12, _ = terminal_loss([0.3, 0.1], 1.0, 2.0)
        assert l12 == pytest.approx(l1 + l2)

    def test_invalid_marginals(self):
        with pytest.raises(ValueError):
            terminal_loss([1.5], 1.0, 1.0)


class TestLossBasedStopping:
    def test_threshold_formula(self):
        rule = LossBasedStopping(fp_cost=1.0, fn_cost=9.0, test_cost=0.1)
        assert rule.decision_threshold() == pytest.approx(0.1)

    def test_should_stop_when_risk_small(self):
        rule = LossBasedStopping(fp_cost=1.0, fn_cost=10.0, test_cost=0.5)
        assert rule.should_stop([0.001, 0.002])
        assert not rule.should_stop([0.4, 0.5])

    def test_invalid_costs(self):
        with pytest.raises(ValueError):
            LossBasedStopping(fp_cost=0.0)

    def test_classify_now(self):
        rule = LossBasedStopping(fp_cost=1.0, fn_cost=3.0, test_cost=0.1)
        calls = rule.classify_now([0.1, 0.9])
        assert calls == [False, True]


class TestScreensWithStopping:
    def test_screen_terminates_with_full_calls(self):
        prior = PriorSpec.uniform(10, 0.05)
        rule = LossBasedStopping(fp_cost=1.0, fn_cost=20.0, test_cost=0.5)
        result = run_screen(
            prior, BinaryErrorModel(0.98, 0.99), BHAPolicy(), rng=3,
            stopping_rule=rule, options=ScreenOptions(max_stages=60),
        )
        assert result.report.all_classified  # loss rule leaves no limbo
        assert not result.exhausted_budget

    def test_cheaper_tests_mean_more_testing(self):
        prior = PriorSpec.uniform(10, 0.05)
        model = BinaryErrorModel(0.98, 0.99)
        expensive = LossBasedStopping(fp_cost=1.0, fn_cost=20.0, test_cost=2.0)
        cheap = LossBasedStopping(fp_cost=1.0, fn_cost=20.0, test_cost=0.05)
        totals = {"expensive": 0, "cheap": 0}
        for seed in range(6):
            from repro.simulate.population import make_cohort

            cohort = make_cohort(prior, rng=800 + seed)
            totals["expensive"] += run_screen(
                prior, model, BHAPolicy(), rng=seed, cohort=cohort,
                stopping_rule=expensive, options=ScreenOptions(max_stages=60),
            ).efficiency.num_tests
            totals["cheap"] += run_screen(
                prior, model, BHAPolicy(), rng=seed, cohort=cohort,
                stopping_rule=cheap, options=ScreenOptions(max_stages=60),
            ).efficiency.num_tests
        assert totals["cheap"] >= totals["expensive"]

    def test_sbgt_session_accepts_rule(self, ctx):
        from repro.sbgt.config import SBGTConfig
        from repro.sbgt.session import SBGTSession

        prior = PriorSpec.uniform(8, 0.05)
        rule = LossBasedStopping(fp_cost=1.0, fn_cost=20.0, test_cost=0.5)
        session = SBGTSession(ctx, prior, PerfectTest(), SBGTConfig(max_stages=40))
        result = session.run_screen(BHAPolicy(), rng=2, stopping_rule=rule)
        assert result.report.all_classified
        session.close()

    def test_high_fn_cost_flags_uncertain_positives(self):
        # With fn_cost >> fp_cost and expensive tests, residual-risk
        # individuals get called positive rather than left undetermined.
        prior = PriorSpec.uniform(6, 0.3)
        rule = LossBasedStopping(fp_cost=1.0, fn_cost=50.0, test_cost=5.0)
        result = run_screen(
            prior, BinaryErrorModel(0.9, 0.9), BHAPolicy(), rng=1,
            stopping_rule=rule, options=ScreenOptions(max_stages=3),
        )
        assert result.report.all_classified

"""Screens driven from arbitrary (correlated) prior state spaces."""

import numpy as np
import pytest

from repro.bayes.correlated import HouseholdPrior
from repro.bayes.dilution import BinaryErrorModel, PerfectTest
from repro.bayes.priors import PriorSpec
from repro.halving.policy import BHAPolicy
from repro.sbgt.config import SBGTConfig
from repro.simulate.population import draw_truth_from_space
from repro.workflows.classify import run_screen, run_screen_from_space


class TestDrawTruthFromSpace:
    def test_deterministic(self):
        space = HouseholdPrior([3, 3], 0.1, 0.6).build_dense()
        assert draw_truth_from_space(space, 4) == draw_truth_from_space(space, 4)

    def test_truth_is_valid_state(self):
        space = HouseholdPrior([2, 2], 0.1, 0.6).build_dense()
        truth = draw_truth_from_space(space, 0)
        assert truth in set(space.masks.tolist())

    def test_frequency_matches_marginal(self):
        hp = HouseholdPrior([3], 0.2, 0.5)
        space = hp.build_dense()
        rng = np.random.default_rng(0)
        hits = sum(
            bin(draw_truth_from_space(space, rng)).count("1") for _ in range(3000)
        )
        assert hits / (3000 * 3) == pytest.approx(hp.marginal_risk(), abs=0.01)


class TestRunScreenFromSpace:
    def test_household_screen_completes(self):
        space = HouseholdPrior([4, 4], 0.1, 0.65).build_dense()
        result = run_screen_from_space(space, PerfectTest(), BHAPolicy(), rng=1)
        assert result.report.all_classified
        assert result.accuracy == 1.0
        assert result.confusion.n_items == 8

    def test_fixed_truth_respected(self):
        space = HouseholdPrior([3, 3], 0.1, 0.6).build_dense()
        result = run_screen_from_space(
            space, PerfectTest(), BHAPolicy(), rng=2, truth_mask=0b000111
        )
        assert result.report.positives() == [0, 1, 2]

    def test_reduces_to_run_screen_for_independent_prior(self):
        # Feeding run_screen's own dense prior through the space driver
        # must replay the identical screen (same truth, rng, policy).
        prior = PriorSpec.uniform(8, 0.07)
        model = BinaryErrorModel(0.98, 0.99)
        from repro.simulate.population import make_cohort

        cohort = make_cohort(prior, rng=9)
        a = run_screen(
            prior, model, BHAPolicy(), rng=3, cohort=cohort, config=SBGTConfig(max_stages=40)
        )
        b = run_screen_from_space(
            prior.build_dense(), model, BHAPolicy(), rng=3,
            truth_mask=cohort.truth_mask, config=SBGTConfig(max_stages=40),
        )
        assert a.report.statuses == b.report.statuses
        assert a.efficiency.num_tests == b.efficiency.num_tests

    def test_household_beats_marginal_matched_independent(self):
        # The household example's headline, as a regression test.
        hp = HouseholdPrior([4, 3, 4, 3], intro_prob=0.10, attack_rate=0.65)
        household_space = hp.build_dense()
        indep = PriorSpec.uniform(hp.n_items, hp.marginal_risk())
        model = BinaryErrorModel(0.99, 0.995)
        dep_tests = ind_tests = 0
        for trial in range(6):
            truth = hp.draw_truth(rng=100 + trial)
            dep = run_screen_from_space(
                household_space, model, BHAPolicy(), rng=7, truth_mask=truth
            )
            ind = run_screen_from_space(
                indep.build_dense(), model, BHAPolicy(), rng=7, truth_mask=truth
            )
            dep_tests += dep.efficiency.num_tests
            ind_tests += ind.efficiency.num_tests
        assert dep_tests < ind_tests

    def test_prune_and_entropy_options(self):
        space = HouseholdPrior([3, 3], 0.1, 0.5).build_dense()
        result = run_screen_from_space(
            space, PerfectTest(), BHAPolicy(), rng=5,
            config=SBGTConfig(prune_epsilon=1e-9, track_entropy=True),
        )
        gains = [r.information_gain for r in result.posterior.log.records]
        assert all(g is not None for g in gains)

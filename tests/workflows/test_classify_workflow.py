"""The serial screen driver."""

import numpy as np
import pytest

from repro.bayes.dilution import BinaryErrorModel, DilutionErrorModel, PerfectTest
from repro.bayes.priors import PriorSpec
from repro.halving.policy import (
    BHAPolicy,
    DorfmanPolicy,
    IndividualTestingPolicy,
    LookaheadPolicy,
)
from repro.sbgt.config import SBGTConfig
from repro.simulate.population import Cohort, make_cohort
from repro.workflows.classify import run_screen


class TestRunScreen:
    def test_perfect_test_full_accuracy(self):
        prior = PriorSpec.uniform(10, 0.08)
        result = run_screen(prior, PerfectTest(), BHAPolicy(), rng=13)
        assert result.report.all_classified
        assert result.accuracy == 1.0
        assert result.confusion.sensitivity == 1.0
        assert result.confusion.specificity == 1.0

    def test_deterministic_given_seed(self):
        prior = PriorSpec.uniform(8, 0.1)
        model = DilutionErrorModel(0.97, 0.99, 0.3)
        a = run_screen(prior, model, BHAPolicy(), rng=5)
        b = run_screen(prior, model, BHAPolicy(), rng=5)
        assert a.efficiency.num_tests == b.efficiency.num_tests
        assert a.cohort.truth_mask == b.cohort.truth_mask

    def test_fixed_cohort_respected(self):
        prior = PriorSpec.uniform(6, 0.1)
        cohort = Cohort(prior, truth_mask=0b000101)
        result = run_screen(prior, PerfectTest(), BHAPolicy(), rng=0, cohort=cohort)
        assert result.report.positives() == [0, 2]

    def test_individual_testing_costs_n_tests(self):
        prior = PriorSpec.uniform(9, 0.1)
        result = run_screen(prior, PerfectTest(), IndividualTestingPolicy(), rng=2)
        assert result.efficiency.num_tests == 9
        assert result.stages_used == 1

    def test_bha_beats_individual_at_low_prevalence(self):
        prior = PriorSpec.uniform(12, 0.02)
        totals = {"bha": 0, "individual": 0}
        for seed in range(5):
            totals["bha"] += run_screen(
                prior, PerfectTest(), BHAPolicy(), rng=seed
            ).efficiency.num_tests
            totals["individual"] += run_screen(
                prior, PerfectTest(), IndividualTestingPolicy(), rng=seed
            ).efficiency.num_tests
        assert totals["bha"] < totals["individual"]

    def test_lookahead_uses_fewer_stages_than_bha(self):
        prior = PriorSpec.uniform(10, 0.1)
        bha_stages = la_stages = 0
        for seed in range(5):
            bha_stages += run_screen(prior, PerfectTest(), BHAPolicy(), rng=seed).stages_used
            la_stages += run_screen(
                prior, PerfectTest(), LookaheadPolicy(3), rng=seed
            ).stages_used
        assert la_stages < bha_stages

    def test_dorfman_two_stages_with_perfect_test(self):
        prior = PriorSpec.uniform(8, 0.1)
        result = run_screen(prior, PerfectTest(), DorfmanPolicy(4), rng=1)
        assert result.stages_used <= 2

    def test_stage_budget_exhaustion(self):
        prior = PriorSpec.uniform(8, 0.3)
        model = BinaryErrorModel(0.8, 0.8)  # noisy: needs many tests
        result = run_screen(prior, model, BHAPolicy(), rng=0, config=SBGTConfig(max_stages=2))
        assert result.stages_used == 2
        assert result.exhausted_budget
        assert not result.report.all_classified

    def test_pruning_preserves_outcome(self):
        prior = PriorSpec.uniform(10, 0.05)
        cohort = make_cohort(prior, rng=8)
        exact = run_screen(prior, PerfectTest(), BHAPolicy(), rng=1, cohort=cohort)
        pruned = run_screen(
            prior, PerfectTest(), BHAPolicy(), rng=1, cohort=cohort,
            config=SBGTConfig(prune_epsilon=1e-9),
        )
        assert pruned.report.statuses == exact.report.statuses

    def test_mismatched_cohort_rejected(self):
        prior = PriorSpec.uniform(4, 0.1)
        other = Cohort(PriorSpec.uniform(6, 0.1), 0)
        with pytest.raises(ValueError):
            run_screen(prior, PerfectTest(), BHAPolicy(), cohort=other)

    def test_track_entropy_records_gains(self):
        prior = PriorSpec.uniform(6, 0.1)
        result = run_screen(
            prior, PerfectTest(), BHAPolicy(), rng=3, config=SBGTConfig(track_entropy=True)
        )
        gains = [r.information_gain for r in result.posterior.log.records]
        assert all(g is not None for g in gains)

    def test_marginals_are_probabilities(self):
        prior = PriorSpec.uniform(7, 0.15)
        result = run_screen(prior, DilutionErrorModel(), BHAPolicy(), rng=4)
        m = result.report.marginals
        assert np.all(m >= -1e-12) and np.all(m <= 1 + 1e-12)

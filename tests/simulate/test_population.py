"""Cohort generation and ground truth."""

import numpy as np
import dataclasses

import pytest

from repro.bayes.priors import PriorSpec
from repro.simulate.population import Cohort, draw_truth, make_cohort


class TestDrawTruth:
    def test_deterministic(self):
        risks = np.full(10, 0.3)
        assert draw_truth(risks, rng=7) == draw_truth(risks, rng=7)

    def test_zero_risk_no_positives(self):
        assert draw_truth(np.full(8, 1e-12), rng=0) == 0

    def test_certain_risk_all_positive(self):
        assert draw_truth(np.full(4, 1 - 1e-12), rng=0) == 0b1111

    def test_frequency_matches_risk(self):
        rng = np.random.default_rng(0)
        risks = np.full(1, 0.25)
        hits = sum(draw_truth(risks, rng) for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.25, abs=0.03)


class TestCohort:
    def test_properties(self):
        cohort = Cohort(PriorSpec.uniform(6, 0.1), truth_mask=0b100101)
        assert cohort.n_items == 6
        assert cohort.n_positive == 3
        assert cohort.positives() == [0, 2, 5]

    def test_is_positive(self):
        cohort = Cohort(PriorSpec.uniform(3, 0.1), truth_mask=0b010)
        assert cohort.is_positive(1)
        assert not cohort.is_positive(0)

    def test_frozen(self):
        cohort = Cohort(PriorSpec.uniform(2, 0.1), 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cohort.truth_mask = 3


class TestMakeCohort:
    def test_truth_from_prior(self):
        prior = PriorSpec.uniform(8, 0.2)
        cohort = make_cohort(prior, rng=1)
        assert cohort.prior is prior
        assert 0 <= cohort.truth_mask < (1 << 8)

    def test_misspecified_truth(self):
        prior = PriorSpec.uniform(4, 1e-9)
        cohort = make_cohort(prior, rng=0, truth_risks=np.full(4, 1 - 1e-12))
        assert cohort.truth_mask == 0b1111  # truth ignores the prior

    def test_truth_risks_length_checked(self):
        with pytest.raises(ValueError):
            make_cohort(PriorSpec.uniform(4, 0.1), truth_risks=np.array([0.5]))

    def test_deterministic(self):
        prior = PriorSpec.uniform(10, 0.3)
        assert make_cohort(prior, rng=5).truth_mask == make_cohort(prior, rng=5).truth_mask

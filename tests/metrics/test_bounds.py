"""Information-theoretic lower bounds."""


import numpy as np
import pytest

from repro.bayes.correlated import HouseholdPrior
from repro.bayes.dilution import PerfectTest
from repro.bayes.priors import PriorSpec
from repro.halving.policy import BHAPolicy
from repro.metrics.bounds import min_expected_tests, prior_entropy_bits
from repro.workflows.classify import run_screen


class TestPriorEntropyBits:
    def test_fair_coin_per_person(self):
        assert prior_entropy_bits(PriorSpec.uniform(4, 0.5)) == pytest.approx(4.0)

    def test_matches_lattice_entropy(self):
        prior = PriorSpec(np.array([0.1, 0.3, 0.05]))
        direct = prior_entropy_bits(prior)
        via_space = prior_entropy_bits(prior.build_dense())
        assert direct == pytest.approx(via_space, abs=1e-9)

    def test_low_risk_low_entropy(self):
        assert prior_entropy_bits(PriorSpec.uniform(10, 0.01)) < 1.0

    def test_household_prior_below_independent(self):
        # Correlation removes uncertainty: the household prior must have
        # lower entropy than the marginal-matched independence prior.
        hp = HouseholdPrior([4, 4], intro_prob=0.1, attack_rate=0.6)
        dependent = prior_entropy_bits(hp.build_dense())
        independent = prior_entropy_bits(PriorSpec.uniform(8, hp.marginal_risk()))
        assert dependent < independent

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            prior_entropy_bits([0.1, 0.2])


class TestOptimalityRatio:
    def test_bha_near_shannon_floor(self):
        # Noiseless assay: BHA should land within ~2.5x of the floor even
        # with the cheap prefix candidate set.
        prior = PriorSpec.uniform(12, 0.05)
        total_tests = 0
        for seed in range(8):
            total_tests += run_screen(
                prior, PerfectTest(), BHAPolicy(), rng=seed
            ).efficiency.num_tests
        ratio = (total_tests / 8) / min_expected_tests(prior)
        assert 1.0 <= ratio < 2.5

    def test_individual_testing_far_from_floor(self):
        from repro.halving.policy import IndividualTestingPolicy

        prior = PriorSpec.uniform(12, 0.02)
        res = run_screen(prior, PerfectTest(), IndividualTestingPolicy(), rng=0)
        ratio = res.efficiency.num_tests / min_expected_tests(prior)
        assert ratio > 4.0  # 12 tests vs an entropy floor well under 2 bits

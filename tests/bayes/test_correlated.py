"""Household (correlated) priors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bayes.correlated import HouseholdPrior, pairwise_correlation
from repro.bayes.dilution import PerfectTest
from repro.bayes.posterior import Posterior
from repro.lattice.ops import marginals


@pytest.fixture
def prior():
    return HouseholdPrior([3, 2, 4], intro_prob=0.08, attack_rate=0.6)


class TestConstruction:
    def test_n_items(self, prior):
        assert prior.n_items == 9

    def test_households_layout(self, prior):
        assert prior.households() == [(0, 3), (3, 2), (5, 4)]

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            HouseholdPrior([14, 14])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HouseholdPrior([])

    @pytest.mark.parametrize("kwargs", [
        {"intro_prob": 0.0}, {"intro_prob": 1.0},
        {"attack_rate": 0.0}, {"attack_rate": 1.0},
    ])
    def test_degenerate_probabilities_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HouseholdPrior([2, 2], **{"intro_prob": 0.1, "attack_rate": 0.5, **kwargs})


class TestDistribution:
    def test_normalized(self, prior):
        assert prior.build_dense().is_normalized()

    def test_marginals_equal_qr(self, prior):
        space = prior.build_dense()
        assert np.allclose(marginals(space), prior.marginal_risk(), atol=1e-10)

    def test_within_household_positive_correlation(self, prior):
        space = prior.build_dense()
        assert pairwise_correlation(space, 0, 1) > 0.3
        assert pairwise_correlation(space, 5, 8) > 0.3

    def test_across_household_independence(self, prior):
        space = prior.build_dense()
        assert pairwise_correlation(space, 0, 3) == pytest.approx(0.0, abs=1e-9)
        assert pairwise_correlation(space, 4, 5) == pytest.approx(0.0, abs=1e-9)

    def test_higher_attack_rate_more_correlation(self):
        low = HouseholdPrior([3], intro_prob=0.1, attack_rate=0.3)
        high = HouseholdPrior([3], intro_prob=0.1, attack_rate=0.9)
        c_low = pairwise_correlation(low.build_dense(), 0, 1)
        c_high = pairwise_correlation(high.build_dense(), 0, 1)
        assert c_high > c_low

    def test_correlation_same_individual_rejected(self, prior):
        with pytest.raises(ValueError):
            pairwise_correlation(prior.build_dense(), 2, 2)

    @settings(max_examples=20)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        q=st.floats(0.02, 0.5),
        r=st.floats(0.1, 0.9),
    )
    def test_marginal_formula_property(self, sizes, q, r):
        if sum(sizes) > 12:
            return
        prior = HouseholdPrior(sizes, intro_prob=q, attack_rate=r)
        space = prior.build_dense()
        assert np.allclose(marginals(space), q * r, atol=1e-9)


class TestTruthAndInference:
    def test_draw_truth_deterministic(self, prior):
        assert prior.draw_truth(5) == prior.draw_truth(5)

    def test_truth_frequency_matches_marginal(self, prior):
        rng = np.random.default_rng(0)
        hits = sum(
            bin(prior.draw_truth(rng)).count("1") for _ in range(2000)
        )
        rate = hits / (2000 * prior.n_items)
        assert rate == pytest.approx(prior.marginal_risk(), abs=0.01)

    def test_one_positive_raises_household_marginals(self, prior):
        # The lattice-exclusive behaviour: a positive member implicates
        # their housemates, not the rest of the cohort.
        space = prior.build_dense()
        post = Posterior(space, PerfectTest())
        post.update([0], True)
        m = post.marginals()
        assert m[0] == pytest.approx(1.0)
        assert m[1] > prior.marginal_risk() * 3  # housemates implicated
        assert m[3] == pytest.approx(prior.marginal_risk(), abs=1e-9)  # others not

    def test_negative_household_pool_clears_household(self, prior):
        space = prior.build_dense()
        post = Posterior(space, PerfectTest())
        post.update(0b000011000, False)  # household 1: members 3 and 4
        m = post.marginals()
        assert np.allclose(m[3:5], 0.0, atol=1e-12)
        assert np.allclose(m[:3], prior.marginal_risk(), atol=1e-9)

"""PriorSpec constructors and lattice builders."""

import numpy as np
import pytest

from repro.bayes.priors import PriorSpec
from repro.lattice.builder import build_restricted_prior


class TestConstructors:
    def test_uniform(self):
        prior = PriorSpec.uniform(5, 0.1)
        assert prior.n_items == 5
        assert np.allclose(prior.risks, 0.1)

    def test_uniform_invalid(self):
        with pytest.raises(ValueError):
            PriorSpec.uniform(0, 0.1)
        with pytest.raises(ValueError):
            PriorSpec.uniform(5, 1.5)

    def test_from_tiers(self):
        prior = PriorSpec.from_tiers([(3, 0.01), (2, 0.3)])
        assert prior.n_items == 5
        assert np.allclose(prior.risks[:3], 0.01)
        assert np.allclose(prior.risks[3:], 0.3)

    def test_from_tiers_empty_raises(self):
        with pytest.raises(ValueError):
            PriorSpec.from_tiers([])

    def test_sampled_mean_roughly_matches(self):
        prior = PriorSpec.sampled(5000, 0.1, dispersion=10.0, rng=0)
        assert prior.risks.mean() == pytest.approx(0.1, abs=0.01)

    def test_sampled_deterministic(self):
        a = PriorSpec.sampled(10, 0.1, rng=7)
        b = PriorSpec.sampled(10, 0.1, rng=7)
        assert np.array_equal(a.risks, b.risks)

    def test_sampled_invalid_dispersion(self):
        with pytest.raises(ValueError):
            PriorSpec.sampled(5, 0.1, dispersion=0.0)

    def test_extreme_risks_clipped_into_open_interval(self):
        prior = PriorSpec(np.array([0.0, 1.0]))
        assert prior.risks[0] > 0.0
        assert prior.risks[1] < 1.0

    def test_invalid_risks_rejected(self):
        with pytest.raises(ValueError):
            PriorSpec(np.array([0.1, np.nan]))
        with pytest.raises(ValueError):
            PriorSpec(np.array([[0.1]]))


class TestDerived:
    def test_build_dense_marginals(self):
        prior = PriorSpec(np.array([0.05, 0.4]))
        space = prior.build_dense()
        assert np.allclose(space.marginals(), prior.risks, atol=1e-10)

    def test_build_restricted(self):
        prior = PriorSpec.uniform(10, 0.03)
        space, log_disc = build_restricted_prior(prior.risks, 2)
        assert space.size == 1 + 10 + 45
        assert log_disc < np.log(0.01)  # tail beyond 2 positives is tiny

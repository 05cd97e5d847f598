"""Response models: likelihood correctness, dilution laws, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bayes.dilution import (
    BinaryErrorModel,
    DilutionErrorModel,
    LogNormalViralLoadModel,
    PerfectTest,
)


class TestPerfectTest:
    def test_sensitivity(self):
        model = PerfectTest()
        assert model.sensitivity(0, 4) == 0.0
        assert model.sensitivity(1, 4) == 1.0
        assert model.sensitivity(4, 4) == 1.0

    def test_log_likelihood_positive_outcome(self):
        ll = PerfectTest().log_likelihood_by_count(True, 3)
        assert ll[0] < -100  # impossible: positive call with zero positives
        assert np.allclose(ll[1:], 0.0)

    def test_log_likelihood_negative_outcome(self):
        ll = PerfectTest().log_likelihood_by_count(False, 3)
        assert ll[0] == pytest.approx(0.0)
        assert np.all(ll[1:] < -100)

    def test_sample_deterministic(self):
        model = PerfectTest()
        assert model.sample(0, 5, rng=0) is False
        assert model.sample(2, 5, rng=0) is True

    def test_invalid_pool(self):
        with pytest.raises(ValueError):
            PerfectTest().sample(5, 4)
        with pytest.raises(ValueError):
            PerfectTest().log_likelihood_by_count(True, 0)


class TestBinaryErrorModel:
    def test_sensitivity_constant_in_k(self):
        model = BinaryErrorModel(0.9, 0.95)
        assert model.sensitivity(1, 10) == model.sensitivity(10, 10) == 0.9

    def test_false_positive_rate(self):
        assert BinaryErrorModel(0.9, 0.95).false_positive_rate == pytest.approx(0.05)

    def test_likelihoods_are_probabilities(self):
        model = BinaryErrorModel(0.9, 0.95)
        for outcome in (True, False):
            lik = np.exp(model.log_likelihood_by_count(outcome, 5))
            assert np.all(lik >= 0) and np.all(lik <= 1)

    def test_outcome_likelihoods_sum_to_one(self):
        model = BinaryErrorModel(0.85, 0.9)
        pos = np.exp(model.log_likelihood_by_count(True, 4))
        neg = np.exp(model.log_likelihood_by_count(False, 4))
        assert np.allclose(pos + neg, 1.0)

    def test_sampling_frequency_matches_sensitivity(self):
        model = BinaryErrorModel(0.8, 0.9)
        rng = np.random.default_rng(0)
        hits = sum(model.sample(2, 4, rng) for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.8, abs=0.03)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            BinaryErrorModel(1.5, 0.9)


class TestDilutionErrorModel:
    def test_monotone_in_k(self):
        model = DilutionErrorModel(0.99, 0.99, 0.5)
        sens = [model.sensitivity(k, 8) for k in range(1, 9)]
        assert all(sens[i] <= sens[i + 1] + 1e-12 for i in range(7))

    def test_undiluted_full_sensitivity(self):
        model = DilutionErrorModel(0.97, 0.99, 0.7)
        assert model.sensitivity(8, 8) == pytest.approx(0.97)

    def test_zero_exponent_recovers_binary_model(self):
        diluted = DilutionErrorModel(0.9, 0.95, 0.0)
        flat = BinaryErrorModel(0.9, 0.95)
        for k in range(1, 6):
            assert diluted.sensitivity(k, 5) == pytest.approx(flat.sensitivity(k, 5))

    def test_stronger_dilution_hurts_more(self):
        weak = DilutionErrorModel(0.99, 0.99, 0.1)
        strong = DilutionErrorModel(0.99, 0.99, 1.0)
        assert strong.sensitivity(1, 16) < weak.sensitivity(1, 16)

    def test_positive_prob_by_count_vectorised_matches_scalar(self):
        model = DilutionErrorModel(0.95, 0.98, 0.4)
        vec = model.positive_prob_by_count(6)
        expected = [model.false_positive_rate] + [model.sensitivity(k, 6) for k in range(1, 7)]
        assert np.allclose(vec, expected)

    def test_outcome_likelihoods_sum_to_one(self):
        model = DilutionErrorModel(0.95, 0.98, 0.4)
        pos = np.exp(model.log_likelihood_by_count(True, 6))
        neg = np.exp(model.log_likelihood_by_count(False, 6))
        assert np.allclose(pos + neg, 1.0)

    @settings(max_examples=30)
    @given(
        k=st.integers(0, 12),
        n=st.integers(1, 12),
        delta=st.floats(0.0, 2.0),
    )
    def test_sensitivity_always_probability(self, k, n, delta):
        if k > n:
            return
        model = DilutionErrorModel(0.99, 0.99, delta)
        if k == 0:
            return
        s = model.sensitivity(k, n)
        assert 0.0 <= s <= 1.0


class TestLogNormalViralLoadModel:
    def test_not_binary(self):
        assert LogNormalViralLoadModel().binary is False

    def test_likelihood_shape(self):
        ll = LogNormalViralLoadModel().log_likelihood_by_count(5.0, 8)
        assert ll.shape == (9,)
        assert np.all(np.isfinite(ll))

    def test_high_signal_prefers_high_counts(self):
        model = LogNormalViralLoadModel(mu_pos=8.0, sigma_pos=1.0)
        ll = model.log_likelihood_by_count(8.0, 4)  # undiluted mean
        assert np.argmax(ll) == 4

    def test_background_signal_prefers_zero(self):
        model = LogNormalViralLoadModel(mu_pos=8.0, mu_neg=0.0)
        ll = model.log_likelihood_by_count(0.0, 4)
        assert np.argmax(ll) == 0

    def test_dilution_shifts_means_down(self):
        model = LogNormalViralLoadModel(mu_pos=8.0)
        # one positive in a 10-pool reads lower than in a 2-pool
        ll10 = model.log_likelihood_by_count(8.0 + np.log(1 / 10), 10)
        assert np.argmax(ll10) == 1

    def test_sample_reproducible(self):
        model = LogNormalViralLoadModel()
        assert model.sample(2, 4, rng=5) == model.sample(2, 4, rng=5)

    def test_sample_mean_matches_model(self):
        model = LogNormalViralLoadModel(mu_pos=8.0, sigma_pos=0.5)
        rng = np.random.default_rng(0)
        draws = [model.sample(4, 4, rng) for _ in range(2000)]
        assert np.mean(draws) == pytest.approx(8.0, abs=0.05)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            LogNormalViralLoadModel(sigma_pos=0.0)

    def test_gaussian_density_normalised(self):
        from scipy.integrate import quad

        model = LogNormalViralLoadModel()
        integral, _ = quad(
            lambda y: np.exp(model.log_likelihood_by_count(y, 3)[0]), -20, 20
        )
        assert integral == pytest.approx(1.0, abs=1e-6)

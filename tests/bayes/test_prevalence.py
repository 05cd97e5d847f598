"""Prevalence estimation from pooled outcomes."""

import numpy as np
import pytest

from repro.bayes.dilution import (
    BinaryErrorModel,
    DilutionErrorModel,
    LogNormalViralLoadModel,
    PerfectTest,
)
from repro.bayes.prevalence import (
    estimate_prevalence,
    pool_positive_prob,
)


class TestPoolPositiveProb:
    def test_zero_prevalence_is_false_positive_rate(self):
        model = BinaryErrorModel(0.95, 0.98)
        p = pool_positive_prob(np.array([0.0]), 8, model)
        assert p[0] == pytest.approx(0.02, abs=1e-6)

    def test_full_prevalence_is_sensitivity(self):
        model = BinaryErrorModel(0.95, 0.98)
        p = pool_positive_prob(np.array([1.0]), 8, model)
        assert p[0] == pytest.approx(0.95, abs=1e-6)

    def test_monotone_in_prevalence(self):
        model = DilutionErrorModel(0.98, 0.99, 0.4)
        grid = np.linspace(0, 1, 50)
        p = pool_positive_prob(grid, 10, model)
        assert np.all(np.diff(p) >= -1e-9)

    def test_perfect_test_closed_form(self):
        grid = np.array([0.05, 0.2])
        p = pool_positive_prob(grid, 6, PerfectTest())
        assert np.allclose(p, 1 - (1 - grid) ** 6, atol=1e-9)

    def test_continuous_model_rejected(self):
        with pytest.raises(ValueError):
            pool_positive_prob(np.array([0.1]), 4, LogNormalViralLoadModel())


class TestEstimatePrevalence:
    def _simulate_outcomes(self, theta, pool_size, n_pools, model, seed=0):
        rng = np.random.default_rng(seed)
        outcomes = []
        for _ in range(n_pools):
            k = int(rng.binomial(pool_size, theta))
            outcomes.append((pool_size, model.sample(k, pool_size, rng)))
        return outcomes

    def test_recovers_true_prevalence(self):
        # Average over several independent seeds: any single draw's pool
        # positive rate fluctuates ~±2% and a 95% CI misses 1 in 20.
        model = BinaryErrorModel(0.98, 0.99)
        means, hits = [], 0
        for seed in range(5):
            outcomes = self._simulate_outcomes(0.08, 10, 400, model, seed=seed)
            post = estimate_prevalence(outcomes, model)
            means.append(post.mean)
            lo, hi = post.credible_interval(0.95)
            hits += lo <= 0.08 <= hi
        assert np.mean(means) == pytest.approx(0.08, abs=0.015)
        assert hits >= 4

    def test_interval_shrinks_with_data(self):
        model = BinaryErrorModel(0.98, 0.99)
        few = estimate_prevalence(self._simulate_outcomes(0.05, 8, 30, model), model)
        many = estimate_prevalence(self._simulate_outcomes(0.05, 8, 600, model), model)
        lo_f, hi_f = few.credible_interval()
        lo_m, hi_m = many.credible_interval()
        assert (hi_m - lo_m) < (hi_f - lo_f)

    def test_all_negative_pools_push_low(self):
        model = BinaryErrorModel(0.99, 0.995)
        post = estimate_prevalence([(10, False)] * 100, model)
        assert post.mean < 0.01

    def test_dilution_aware(self):
        # Same outcome data interpreted under dilution implies *higher*
        # prevalence than under a no-dilution model (pooled negatives
        # are weaker evidence when the assay dilutes).
        outcomes = [(10, False)] * 30 + [(10, True)] * 10
        diluted = estimate_prevalence(outcomes, DilutionErrorModel(0.98, 0.99, 1.0))
        flat = estimate_prevalence(outcomes, BinaryErrorModel(0.98, 0.99))
        assert diluted.mean > flat.mean

    def test_prob_above_alarm(self):
        model = BinaryErrorModel(0.98, 0.99)
        quiet = estimate_prevalence([(10, False)] * 80, model)
        loud = estimate_prevalence(
            self._simulate_outcomes(0.25, 10, 80, model, seed=3), model
        )
        assert quiet.prob_above(0.05) < 0.05
        assert loud.prob_above(0.05) > 0.95

    def test_mode_and_mean_consistent(self):
        model = BinaryErrorModel(0.98, 0.99)
        post = estimate_prevalence(self._simulate_outcomes(0.1, 8, 300, model), model)
        assert post.mode == pytest.approx(post.mean, abs=0.03)

    def test_validation(self):
        model = BinaryErrorModel(0.98, 0.99)
        with pytest.raises(ValueError):
            estimate_prevalence([], model)
        with pytest.raises(ValueError):
            estimate_prevalence([(5, True)], model, prior_a=0.0)
        post = estimate_prevalence([(5, True)], model)
        with pytest.raises(ValueError):
            post.credible_interval(1.5)

    def test_consumes_evidence_log_shapes(self):
        # The estimator plugs straight into screen evidence records.
        from repro.sbgt.session import SBGTSession
        from repro.bayes.priors import PriorSpec

        model = BinaryErrorModel(0.98, 0.99)
        post = SBGTSession(None, PriorSpec.uniform(8, 0.05), model)
        post.update([0, 1, 2, 3], False)
        post.update([4, 5], False)
        outcomes = [(r.pool_size, r.outcome) for r in post.log.records]
        prev = estimate_prevalence(outcomes, model)
        assert 0.0 < prev.mean < 0.05

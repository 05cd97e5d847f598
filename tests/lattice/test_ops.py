"""Lattice operation kernels against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lattice.builder import build_dense_prior
from repro.lattice.ops import (
    condition_on_classification,
    down_set_mass,
    entropy,
    kl_divergence,
    map_state,
    marginals,
    normalize_log_probs,
    pool_count_distribution,
    posterior_update,
    top_states,
    up_set_mass,
)
from repro.lattice.states import StateSpace


def brute_marginals(space):
    p = space.probs()
    return [
        sum(p[j] for j in range(space.size) if (int(space.masks[j]) >> i) & 1)
        for i in range(space.n_items)
    ]


class TestNormalize:
    def test_sums_to_one(self):
        lp = normalize_log_probs(np.array([0.0, 1.0, 2.0]))
        assert np.exp(lp).sum() == pytest.approx(1.0)

    def test_idempotent(self):
        lp = normalize_log_probs(np.array([-1.0, -2.0]))
        assert np.allclose(normalize_log_probs(lp), lp)

    def test_preserves_ratios(self):
        lp = normalize_log_probs(np.log([2.0, 6.0]))
        assert np.exp(lp[1] - lp[0]) == pytest.approx(3.0)

    def test_all_zero_mass_raises(self):
        with pytest.raises(ValueError):
            normalize_log_probs(np.array([-np.inf, -np.inf]))

    def test_extreme_values_stable(self):
        lp = normalize_log_probs(np.array([-1e6, -1e6 + 1.0]))
        assert np.isfinite(lp).all()
        assert np.exp(lp).sum() == pytest.approx(1.0)


class TestEntropy:
    def test_uniform(self):
        assert entropy(StateSpace.dense(3)) == pytest.approx(3 * np.log(2))

    def test_point_mass_zero(self):
        lp = np.full(4, -np.inf)
        lp[2] = 0.0
        space = StateSpace(2, np.arange(4, dtype=np.uint64), lp)
        assert entropy(space) == pytest.approx(0.0)

    def test_nonnegative(self):
        space = build_dense_prior(np.array([0.1, 0.7, 0.3]))
        assert entropy(space) >= 0.0


class TestMarginals:
    def test_matches_brute_force(self):
        space = build_dense_prior(np.array([0.1, 0.4, 0.25, 0.6]))
        assert np.allclose(marginals(space), brute_marginals(space))

    @settings(max_examples=25)
    @given(
        risks=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6).map(np.array)
    )
    def test_prior_marginals_equal_risks(self, risks):
        space = build_dense_prior(risks)
        assert np.allclose(marginals(space), risks, atol=1e-9)

    def test_in_unit_interval(self):
        space = build_dense_prior(np.array([0.2, 0.8]))
        m = marginals(space)
        assert np.all(m >= 0) and np.all(m <= 1)


class TestMapTopStates:
    def test_map_state(self):
        lp = np.log(np.array([0.1, 0.2, 0.65, 0.05]))
        space = StateSpace(2, np.arange(4, dtype=np.uint64), lp)
        assert map_state(space) == 2

    def test_top_states_sorted(self):
        lp = np.log(np.array([0.4, 0.1, 0.3, 0.2]))
        space = StateSpace(2, np.arange(4, dtype=np.uint64), lp)
        top = top_states(space, 3)
        assert [m for m, _ in top] == [0, 2, 3]
        assert top[0][1] == pytest.approx(0.4)

    def test_top_states_k_zero(self):
        assert top_states(StateSpace.dense(2), 0) == []

    def test_top_states_k_exceeds_size(self):
        assert len(top_states(StateSpace.dense(2), 100)) == 4


class TestDownUpSet:
    def test_down_set_uniform(self):
        space = StateSpace.dense(3)
        # down-set of pool {0}: states with bit0 clear = half the lattice
        assert down_set_mass(space, 0b001) == pytest.approx(0.5)

    def test_down_plus_up_is_one(self):
        space = build_dense_prior(np.array([0.2, 0.5, 0.1]))
        for pool in (0b001, 0b011, 0b111):
            assert down_set_mass(space, pool) + up_set_mass(space, pool) == pytest.approx(1.0)

    def test_prior_down_set_is_product(self):
        risks = np.array([0.1, 0.2, 0.3])
        space = build_dense_prior(risks)
        assert down_set_mass(space, 0b111) == pytest.approx(np.prod(1 - risks))

    def test_pool_count_distribution_sums_to_one(self):
        space = build_dense_prior(np.array([0.3, 0.3, 0.3, 0.3]))
        dist = pool_count_distribution(space, 0b1111)
        assert dist.sum() == pytest.approx(1.0)
        # iid 0.3 risks: counts are Binomial(4, 0.3)
        from scipy.stats import binom

        assert np.allclose(dist, binom.pmf(np.arange(5), 4, 0.3), atol=1e-9)


class TestPosteriorUpdate:
    def test_matches_manual_bayes(self):
        risks = np.array([0.2, 0.4, 0.1])
        space = build_dense_prior(risks)
        pool, ll = 0b011, np.log(np.array([0.05, 0.8, 0.95]))
        prior_p = space.probs().copy()
        posterior_update(space, pool, ll)
        counts = [bin(s & pool).count("1") for s in range(8)]
        unnorm = prior_p * np.exp(ll)[counts]
        assert np.allclose(space.probs(), unnorm / unnorm.sum())

    def test_output_normalized(self):
        space = build_dense_prior(np.array([0.5, 0.5]))
        posterior_update(space, 0b01, np.log([0.3, 0.9]))
        assert space.is_normalized()

    def test_short_likelihood_vector_raises(self):
        space = StateSpace.dense(3)
        with pytest.raises(ValueError):
            posterior_update(space, 0b111, np.log([0.5, 0.5]))  # needs k=0..3

    def test_sequential_updates_commute(self):
        risks = np.array([0.1, 0.3, 0.2])
        ll_a, ll_b = np.log([0.1, 0.9]), np.log([0.8, 0.2])
        s1 = build_dense_prior(risks)
        posterior_update(s1, 0b001, ll_a)
        posterior_update(s1, 0b100, ll_b)
        s2 = build_dense_prior(risks)
        posterior_update(s2, 0b100, ll_b)
        posterior_update(s2, 0b001, ll_a)
        assert np.allclose(s1.log_probs, s2.log_probs, atol=1e-10)


class TestCondition:
    def test_confirmed_positive(self):
        space = build_dense_prior(np.array([0.1, 0.5]))
        out = condition_on_classification(space, positive_mask=0b01)
        assert np.allclose(marginals(out)[0], 1.0)
        assert out.size == 2

    def test_confirmed_negative(self):
        space = build_dense_prior(np.array([0.1, 0.5]))
        out = condition_on_classification(space, negative_mask=0b10)
        assert marginals(out)[1] == pytest.approx(0.0)

    def test_other_marginals_unchanged_under_independence(self):
        space = build_dense_prior(np.array([0.1, 0.5, 0.3]))
        out = condition_on_classification(space, positive_mask=0b001)
        assert np.allclose(marginals(out)[1:], [0.5, 0.3], atol=1e-10)

    def test_conflicting_masks_raise(self):
        space = StateSpace.dense(2)
        with pytest.raises(ValueError):
            condition_on_classification(space, positive_mask=0b01, negative_mask=0b01)

    def test_contradiction_raises(self):
        space = StateSpace.from_masks(2, [0b00])  # only the all-negative state
        with pytest.raises(ValueError):
            condition_on_classification(space, positive_mask=0b01)


class TestKL:
    def test_self_divergence_zero(self):
        space = build_dense_prior(np.array([0.2, 0.6]))
        assert kl_divergence(space, space.copy()) == pytest.approx(0.0)

    def test_nonnegative(self):
        p = build_dense_prior(np.array([0.2, 0.6]))
        q = build_dense_prior(np.array([0.5, 0.5]))
        assert kl_divergence(p, q) > 0.0

    def test_asymmetric(self):
        p = build_dense_prior(np.array([0.05, 0.05]))
        q = build_dense_prior(np.array([0.6, 0.6]))
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_mismatched_support_raises(self):
        p = StateSpace.dense(2)
        q = StateSpace.from_masks(2, [0, 1])
        with pytest.raises(ValueError):
            kl_divergence(p, q)

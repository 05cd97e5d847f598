"""Prior construction over dense and restricted lattices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from repro.lattice.builder import (
    build_dense_prior,
    build_restricted_prior,
    enumerate_restricted_masks,
    product_prior_log,
)
from repro.util.bits import popcount64

risk_arrays = st.lists(
    st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=10
).map(np.array)


class TestProductPriorLog:
    def test_single_item(self):
        masks = np.array([0, 1], dtype=np.uint64)
        lp = product_prior_log(masks, np.array([0.3]))
        assert np.allclose(np.exp(lp), [0.7, 0.3])

    def test_two_items_independent(self):
        masks = np.arange(4, dtype=np.uint64)
        lp = product_prior_log(masks, np.array([0.1, 0.5]))
        expected = [0.9 * 0.5, 0.1 * 0.5, 0.9 * 0.5, 0.1 * 0.5]
        assert np.allclose(np.exp(lp), expected)

    def test_degenerate_risk_rejected(self):
        with pytest.raises(ValueError):
            product_prior_log(np.array([0], dtype=np.uint64), np.array([0.0]))
        with pytest.raises(ValueError):
            product_prior_log(np.array([0], dtype=np.uint64), np.array([1.0]))

    @settings(max_examples=30)
    @given(risks=risk_arrays)
    def test_dense_prior_sums_to_one(self, risks):
        masks = np.arange(1 << len(risks), dtype=np.uint64)
        lp = product_prior_log(masks, risks)
        assert logsumexp(lp) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=30)
    @given(risks=risk_arrays)
    def test_matches_per_state_product(self, risks):
        masks = np.arange(1 << len(risks), dtype=np.uint64)
        lp = product_prior_log(masks, risks)
        for state in range(min(16, 1 << len(risks))):
            expected = 1.0
            for i, r in enumerate(risks):
                expected *= r if (state >> i) & 1 else 1 - r
            assert np.exp(lp[state]) == pytest.approx(expected, rel=1e-9)


class TestBuildDensePrior:
    def test_normalized(self):
        space = build_dense_prior(np.array([0.1, 0.2, 0.3]))
        assert space.is_normalized()
        assert space.size == 8

    def test_marginals_equal_risks(self):
        risks = np.array([0.05, 0.2, 0.5, 0.9])
        space = build_dense_prior(risks)
        assert np.allclose(space.marginals(), risks, atol=1e-10)

    def test_too_many_items(self):
        with pytest.raises(ValueError):
            build_dense_prior(np.full(31, 0.5))


class TestEnumerateRestrictedMasks:
    def test_rank_zero(self):
        assert enumerate_restricted_masks(5, 0).tolist() == [0]

    def test_counts_match_binomials(self):
        masks = enumerate_restricted_masks(6, 2)
        assert masks.size == 1 + 6 + 15

    def test_full_rank_is_complete_lattice(self):
        masks = enumerate_restricted_masks(4, 4)
        assert sorted(masks.tolist()) == list(range(16))

    def test_no_mask_exceeds_rank(self):
        masks = enumerate_restricted_masks(8, 3)
        assert popcount64(masks).max() == 3

    def test_sorted_by_rank_then_value(self):
        masks = enumerate_restricted_masks(4, 2)
        ranks = popcount64(masks)
        assert all(ranks[i] <= ranks[i + 1] for i in range(len(ranks) - 1))

    def test_no_duplicates(self):
        masks = enumerate_restricted_masks(7, 3)
        assert len(set(masks.tolist())) == masks.size

    def test_max_positives_clamped(self):
        assert enumerate_restricted_masks(3, 10).size == 8


class TestBuildRestrictedPrior:
    def test_normalized_on_support(self):
        space, _ = build_restricted_prior(np.full(8, 0.05), 3)
        assert space.is_normalized()

    def test_discarded_mass_matches_binomial_tail(self):
        n, p, k = 10, 0.1, 2
        from scipy.stats import binom

        _, log_disc = build_restricted_prior(np.full(n, p), k)
        expected_tail = 1.0 - binom.cdf(k, n, p)
        assert np.exp(log_disc) == pytest.approx(expected_tail, rel=1e-9)

    def test_full_rank_discards_nothing(self):
        _, log_disc = build_restricted_prior(np.full(4, 0.3), 4)
        assert np.exp(log_disc) == pytest.approx(0.0, abs=1e-12)

    def test_restriction_reweights_consistently(self):
        risks = np.array([0.02, 0.05, 0.1, 0.2, 0.15])
        dense = build_dense_prior(risks)
        restricted, _ = build_restricted_prior(risks, 2)
        # Restricted probabilities = dense probabilities renormalised on
        # the ≤2-positive support.
        keep = popcount64(dense.masks) <= 2
        expected = dense.probs()[keep] / dense.probs()[keep].sum()
        dense_by_mask = dict(zip(dense.masks[keep].tolist(), expected))
        for mask, p in zip(restricted.masks.tolist(), restricted.probs()):
            assert p == pytest.approx(dense_by_mask[mask], rel=1e-9)

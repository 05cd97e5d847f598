"""Candidate pool generators."""

import numpy as np
import pytest

from repro.halving.candidates import (
    ExhaustiveCandidates,
    PrefixCandidates,
    RandomCandidates,
    SlidingWindowCandidates,
)
from repro.util.bits import popcount64
from repro.util.numerics import tie_key


def all_subsets_of(masks: np.ndarray, eligible: int) -> bool:
    return all(int(m) & ~eligible == 0 for m in masks)


class TestPrefixCandidates:
    def test_pools_within_eligible(self):
        marg = np.array([0.1, 0.5, 0.02, 0.3])
        pools = PrefixCandidates().generate(marg, 0b1011)
        assert all_subsets_of(pools, 0b1011)

    def test_no_empty_pool(self):
        pools = PrefixCandidates().generate(np.array([0.1, 0.2]), 0b11)
        assert np.all(pools != 0)

    def test_ascending_prefix_structure(self):
        marg = np.array([0.3, 0.1, 0.2])
        pools = PrefixCandidates(include_descending=False).generate(marg, 0b111)
        # ascending risk order: 1 (0.1), 4 (0.2), 1|4|... prefixes nest
        as_sets = sorted(int(p) for p in pools)
        assert 1 << 1 in as_sets  # lowest-risk singleton present
        # prefixes are nested: each pool contains the previous
        sorted_by_size = sorted(pools, key=lambda p: bin(int(p)).count("1"))
        for small, big in zip(sorted_by_size, sorted_by_size[1:]):
            assert int(small) & int(big) == int(small)

    def test_max_pool_size_respected(self):
        marg = np.full(10, 0.1)
        pools = PrefixCandidates(max_pool_size=3).generate(marg, (1 << 10) - 1)
        assert popcount64(pools).max() <= 3

    def test_descending_adds_pools(self):
        marg = np.array([0.1, 0.2, 0.3, 0.4])
        asc = PrefixCandidates(include_descending=False).generate(marg, 0b1111)
        both = PrefixCandidates(include_descending=True).generate(marg, 0b1111)
        assert len(both) >= len(asc)

    def test_no_eligible_raises(self):
        with pytest.raises(ValueError):
            PrefixCandidates().generate(np.array([0.1]), 0)

    def test_deduplicated(self):
        marg = np.full(5, 0.1)
        pools = PrefixCandidates().generate(marg, 0b11111)
        assert len(set(pools.tolist())) == len(pools)


class TestExhaustiveCandidates:
    def test_counts(self):
        pools = ExhaustiveCandidates(max_pool_size=2).generate(np.zeros(4), 0b1111)
        assert len(pools) == 4 + 6  # singletons + pairs

    def test_full_coverage_small(self):
        pools = ExhaustiveCandidates(max_pool_size=3).generate(np.zeros(3), 0b111)
        assert len(pools) == 7  # all non-empty subsets

    def test_respects_eligible(self):
        pools = ExhaustiveCandidates(max_pool_size=2).generate(np.zeros(4), 0b0101)
        assert all_subsets_of(pools, 0b0101)
        assert len(pools) == 2 + 1


class TestRandomCandidates:
    def test_count_bounded(self):
        pools = RandomCandidates(count=32, rng=0).generate(np.zeros(8), 0xFF)
        assert 1 <= len(pools) <= 32  # dedupe may shrink

    def test_within_eligible(self):
        pools = RandomCandidates(count=64, rng=1).generate(np.zeros(8), 0b10110101)
        assert all_subsets_of(pools, 0b10110101)

    def test_max_size(self):
        pools = RandomCandidates(count=64, max_pool_size=2, rng=2).generate(
            np.zeros(8), 0xFF
        )
        assert popcount64(pools).max() <= 2


class TestSlidingWindowCandidates:
    def test_windows_contiguous_in_risk_order(self):
        marg = np.array([0.4, 0.1, 0.3, 0.2])
        pools = SlidingWindowCandidates(window_sizes=[2]).generate(marg, 0b1111)
        # risk order: 1(0.1), 3(0.2), 2(0.3), 0(0.4); windows of 2:
        expected = {(1 << 1) | (1 << 3), (1 << 3) | (1 << 2), (1 << 2) | (1 << 0)}
        assert set(int(p) for p in pools) == expected

    def test_oversized_window_falls_back_to_everyone(self):
        pools = SlidingWindowCandidates(window_sizes=[64]).generate(np.zeros(3), 0b111)
        assert set(int(p) for p in pools) == {0b111}

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SlidingWindowCandidates(window_sizes=[0])


class TestUlpRobustOrdering:
    """Generators order by the key they are given: through ``tie_key``
    mathematically tied marginals order by index whatever their last bit,
    raw values order as computed."""

    @staticmethod
    def jitter(values: np.ndarray, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        toward = np.where(rng.random(values.size) < 0.5, 0.0, 1.0)
        return np.where(rng.random(values.size) < 0.3, values, np.nextafter(values, toward))

    @pytest.mark.parametrize("generator", [PrefixCandidates(), SlidingWindowCandidates()])
    def test_one_ulp_perturbations_give_the_identical_table(self, generator):
        marginals = np.array([0.05] * 5 + [0.2] * 3 + [0.05] * 4)
        eligible = (1 << 12) - 1
        reference = generator.generate(tie_key(marginals), eligible)
        for seed in range(20):
            table = generator.generate(tie_key(self.jitter(marginals, seed)), eligible)
            assert np.array_equal(table, reference)

    def test_ties_resolve_by_index(self):
        pools = PrefixCandidates(include_descending=False).generate(
            tie_key(self.jitter(np.full(6, 0.01), 1)), 0b111111
        )
        assert [int(p) for p in pools] == [0b1, 0b11, 0b111, 0b1111, 0b11111, 0b111111]

    def test_raw_values_order_as_computed(self):
        marginals = np.full(4, 0.01)
        marginals[2] = np.nextafter(0.01, 0.0)
        pools = PrefixCandidates(include_descending=False).generate(marginals, 0b1111)
        assert [int(p) for p in pools] == [0b0100, 0b0101, 0b0111, 0b1111]

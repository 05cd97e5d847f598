"""Block kernels vs whole-space operations."""

import numpy as np
import pytest

from repro.lattice.builder import build_dense_prior
from repro.lattice.ops import down_set_mass, entropy, marginals, pool_count_distribution
from repro.lattice.partition import (
    LatticeBlock,
    block_count_hists_partial,
    block_down_set_partial,
    block_entropy_partial,
    block_histogram_partial,
    block_log_mass,
    block_marginal_partial,
    block_top_states,
    block_update,
    merge_blocks,
    partition_state_space,
)


@pytest.fixture
def space():
    return build_dense_prior(np.array([0.1, 0.3, 0.2, 0.4, 0.15]))


class TestPartitionMerge:
    def test_round_trip(self, space):
        blocks = partition_state_space(space, 7)
        merged = merge_blocks(blocks)
        assert np.array_equal(merged.masks, space.masks)
        assert np.allclose(merged.log_probs, space.log_probs)

    def test_block_sizes(self, space):
        blocks = partition_state_space(space, 10)
        assert all(b.size <= 10 for b in blocks)
        assert sum(b.size for b in blocks) == space.size

    def test_invalid_block_size(self, space):
        with pytest.raises(ValueError):
            partition_state_space(space, 0)

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_blocks([])

    def test_merge_mismatched_n_items_raises(self):
        a = LatticeBlock(2, np.array([0], dtype=np.uint64), np.zeros(1))
        b = LatticeBlock(3, np.array([0], dtype=np.uint64), np.zeros(1))
        with pytest.raises(ValueError):
            merge_blocks([a, b])

    def test_blocks_are_copies(self, space):
        blocks = partition_state_space(space, 8)
        blocks[0].log_probs[0] = -99.0
        assert space.log_probs[0] != -99.0


class TestBlockKernels:
    def test_log_mass_sums_to_total(self, space):
        blocks = partition_state_space(space, 6)
        total = np.logaddexp.reduce([block_log_mass(b) for b in blocks])
        assert total == pytest.approx(space.log_total_mass, abs=1e-10)

    def test_log_mass_empty_block(self):
        b = LatticeBlock(2, np.array([], dtype=np.uint64), np.array([]))
        assert block_log_mass(b) == -np.inf

    def test_marginal_partials_sum_to_marginals(self, space):
        blocks = partition_state_space(space, 6)
        total = sum(block_marginal_partial(b) for b in blocks)
        assert np.allclose(total, marginals(space), atol=1e-12)

    def test_down_set_partials_sum(self, space):
        pools = np.array([0b00001, 0b00111, 0b11111], dtype=np.uint64)
        blocks = partition_state_space(space, 6)
        total = sum(block_down_set_partial(b, pools) for b in blocks)
        expected = [down_set_mass(space, int(p)) for p in pools]
        assert np.allclose(total, expected, atol=1e-12)

    def test_entropy_partials_sum(self, space):
        blocks = partition_state_space(space, 4)
        total = sum(block_entropy_partial(b) for b in blocks)
        assert total == pytest.approx(entropy(space), abs=1e-10)

    def test_count_distribution_partials_sum(self, space):
        pool, pool_size = 0b01011, 3
        table = np.array([pool], dtype=np.uint64)
        blocks = partition_state_space(space, 6)
        (total,) = sum(block_count_hists_partial(b, table, pool_size) for b in blocks)
        assert np.allclose(total, pool_count_distribution(space, pool), atol=1e-12)

    def test_update_matches_whole_space(self, space):
        ll = np.log(np.array([0.1, 0.7, 0.9, 0.99]))
        pool = 0b00111
        blocks = partition_state_space(space, 6)
        updated = [block_update(b, pool, ll) for b in blocks]
        merged = merge_blocks(updated)

        reference = space.copy()
        from repro.lattice.ops import posterior_update

        posterior_update(reference, pool, ll)
        merged.normalize()
        assert np.allclose(merged.log_probs, reference.log_probs, atol=1e-10)

    def test_scale_shifts_mass(self, space):
        blocks = partition_state_space(space, 8)
        shift = 1.5
        for b in blocks:
            b.log_probs -= shift
        total = np.logaddexp.reduce([block_log_mass(b) for b in blocks])
        assert total == pytest.approx(space.log_total_mass - shift, abs=1e-10)

    def test_top_states_block_local(self, space):
        blocks = partition_state_space(space, 8)
        for b in blocks:
            top = block_top_states(b, 3)
            assert len(top) == min(3, b.size)
            lps = [lp for _m, lp in top]
            assert lps == sorted(lps, reverse=True)

    def test_histogram_partials_cover_mass(self, space):
        blocks = partition_state_space(space, 8)
        lo, hi = space.log_probs.min(), space.log_probs.max()
        edges = np.linspace(lo, np.nextafter(hi, np.inf), 33)
        hist, counts = sum(block_histogram_partial(b, edges) for b in blocks)
        assert hist.sum() == pytest.approx(1.0, abs=1e-10)
        assert counts.sum() == space.size

    def test_histogram_tail_counts_what_the_cut_keeps(self, space):
        lo, hi = space.log_probs.min(), space.log_probs.max()
        edges = np.linspace(lo, np.nextafter(hi, np.inf), 33)
        _, counts = sum(block_histogram_partial(b, edges) for b in partition_state_space(space, 8))
        for cut in range(32):
            assert counts[cut:].sum() == np.count_nonzero(space.log_probs >= edges[cut])

    def test_histogram_empty_block(self):
        b = LatticeBlock(2, np.array([], dtype=np.uint64), np.array([]))
        assert block_histogram_partial(b, np.linspace(0, 1, 5)).sum() == 0.0

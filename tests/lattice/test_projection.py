"""Lattice contraction: project_out_bit and its block kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lattice.builder import build_dense_prior
from repro.lattice.ops import (
    condition_on_classification,
    marginals,
    project_out_bit,
)
from repro.lattice.partition import (
    block_project_out_bit,
    merge_blocks,
    partition_state_space,
)
from repro.lattice.states import StateSpace


@pytest.fixture
def space():
    return build_dense_prior(np.array([0.1, 0.3, 0.2, 0.4]))


class TestProjectOutBit:
    def test_size_halves(self, space):
        assert project_out_bit(space, 1, True).size == 8

    def test_n_items_decreases(self, space):
        assert project_out_bit(space, 0, False).n_items == 3

    def test_marginals_match_conditioning(self, space):
        for bit in range(4):
            for keep_positive in (True, False):
                proj = project_out_bit(space, bit, keep_positive)
                cond = condition_on_classification(
                    space,
                    positive_mask=(1 << bit) if keep_positive else 0,
                    negative_mask=0 if keep_positive else (1 << bit),
                )
                m_cond = marginals(cond)
                expected = np.delete(m_cond, bit)
                assert np.allclose(marginals(proj), expected, atol=1e-12)

    def test_result_normalized(self, space):
        assert project_out_bit(space, 2, True).is_normalized()

    def test_independent_prior_unchanged_marginals(self, space):
        # With an independent prior, projecting one individual out leaves
        # everyone else's marginal exactly at their risk.
        proj = project_out_bit(space, 1, True)
        assert np.allclose(marginals(proj), [0.1, 0.2, 0.4], atol=1e-12)

    def test_no_duplicate_masks(self, space):
        proj = project_out_bit(space, 1, False)
        assert len(set(proj.masks.tolist())) == proj.size

    def test_invalid_bit(self, space):
        with pytest.raises(ValueError):
            project_out_bit(space, 4, True)
        with pytest.raises(ValueError):
            project_out_bit(space, -1, True)

    def test_last_individual_rejected(self):
        space = StateSpace.dense(1)
        with pytest.raises(ValueError):
            project_out_bit(space, 0, True)

    def test_contradiction_raises(self):
        space = StateSpace.from_masks(2, [0b00, 0b10])  # bit 0 never set
        with pytest.raises(ValueError):
            project_out_bit(space, 0, keep_positive=True)

    @settings(max_examples=25)
    @given(
        risks=st.lists(st.floats(0.05, 0.6), min_size=2, max_size=6).map(np.array),
        keep_positive=st.booleans(),
        data=st.data(),
    )
    def test_sequential_projection_consistent(self, risks, keep_positive, data):
        space = build_dense_prior(risks)
        bit = data.draw(st.integers(0, len(risks) - 1))
        proj = project_out_bit(space, bit, keep_positive)
        assert proj.is_normalized()
        assert proj.size == space.size // 2


class TestBlockProjection:
    def test_blocks_match_whole_space(self, space):
        blocks = partition_state_space(space, 5)
        projected = [block_project_out_bit(b, 2, True) for b in blocks]
        merged = merge_blocks([b for b in projected if b.size > 0])
        merged.normalize()
        reference = project_out_bit(space, 2, True)
        by_mask_ref = dict(zip(reference.masks.tolist(), reference.probs()))
        by_mask_got = dict(zip(merged.masks.tolist(), merged.probs()))
        assert by_mask_ref.keys() == by_mask_got.keys()
        for mask, p in by_mask_ref.items():
            assert by_mask_got[mask] == pytest.approx(p, abs=1e-12)

    def test_empty_block_ok(self):
        from repro.lattice.partition import LatticeBlock

        empty = LatticeBlock(3, np.array([], dtype=np.uint64), np.array([]))
        out = block_project_out_bit(empty, 1, True)
        assert out.size == 0
        assert out.n_items == 2

"""Unit + property tests for the bit-mask kernels."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.util.bits import (
    MAX_ITEMS,
    bit_column,
    indices_from_mask,
    intersect_count,
    popcount64,
)


class TestIndicesFromMask:
    def test_zero(self):
        assert indices_from_mask(0) == []

    def test_round_trip(self):
        idx = [0, 5, 17, 63]
        assert indices_from_mask(sum(1 << i for i in idx)) == idx

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            indices_from_mask(-1)
        with pytest.raises(ValueError):
            indices_from_mask(-(1 << 130))

    @given(st.integers(min_value=0, max_value=1 << 200))
    @example(0)
    @example((1 << 200) - 1)
    def test_matches_bit_position_walk(self, mask):
        """Same output as walking every bit position, past 64 bits too."""
        walk, m, pos = [], mask, 0
        while m:
            if m & 1:
                walk.append(pos)
            m >>= 1
            pos += 1
        assert indices_from_mask(mask) == walk


class TestPopcount:
    def test_known_values(self):
        masks = np.array([0, 1, 3, 0xFF, 2**63], dtype=np.uint64)
        assert popcount64(masks).tolist() == [0, 1, 2, 8, 1]

    def test_all_ones(self):
        assert popcount64(np.array([2**64 - 1], dtype=np.uint64))[0] == 64

    def test_empty_array(self):
        assert popcount64(np.array([], dtype=np.uint64)).size == 0

    def test_returns_int64(self):
        assert popcount64(np.array([7], dtype=np.uint64)).dtype == np.int64

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=100))
    def test_matches_python_bin_count(self, values):
        masks = np.array(values, dtype=np.uint64)
        expected = [bin(v).count("1") for v in values]
        assert popcount64(masks).tolist() == expected

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=100))
    def test_swar_and_native_agree(self, values):
        from repro.util.bits import _popcount64_swar

        masks = np.array(values, dtype=np.uint64)
        assert _popcount64_swar(masks).tolist() == popcount64(masks).tolist()


class TestIntersectCount:
    def test_disjoint(self):
        masks = np.array([0b1100], dtype=np.uint64)
        assert intersect_count(masks, 0b0011)[0] == 0

    def test_partial_overlap(self):
        masks = np.array([0b1110], dtype=np.uint64)
        assert intersect_count(masks, 0b0110)[0] == 2

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32), max_size=50),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_matches_python(self, values, pool):
        masks = np.array(values, dtype=np.uint64)
        expected = [bin(v & pool).count("1") for v in values]
        assert intersect_count(masks, pool).tolist() == expected


class TestBitColumn:
    def test_basic(self):
        masks = np.array([0b001, 0b010, 0b011], dtype=np.uint64)
        assert bit_column(masks, 0).tolist() == [True, False, True]
        assert bit_column(masks, 1).tolist() == [False, True, True]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bit_column(np.array([1], dtype=np.uint64), MAX_ITEMS)
        with pytest.raises(ValueError):
            bit_column(np.array([1], dtype=np.uint64), -1)

    @given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=63))
    def test_matches_python(self, mask, bit):
        expected = bool((mask >> bit) & 1)
        assert bool(bit_column(np.array([mask], dtype=np.uint64), bit)[0]) == expected

"""StateSpace construction and invariants."""

import numpy as np
import pytest

from repro.lattice.states import StateSpace


class TestDense:
    def test_size(self):
        assert StateSpace.dense(4).size == 16

    def test_uniform_normalized(self):
        space = StateSpace.dense(3)
        assert space.is_normalized()
        assert np.allclose(space.probs(), 1 / 8)

    def test_masks_enumerate_all(self):
        space = StateSpace.dense(3)
        assert sorted(space.masks.tolist()) == list(range(8))

    def test_too_large_raises(self):
        with pytest.raises(ValueError):
            StateSpace.dense(31)

    def test_zero_items_raises(self):
        with pytest.raises(ValueError):
            StateSpace.dense(0)


class TestFromMasks:
    def test_subset_support(self):
        space = StateSpace.from_masks(4, [0, 1, 3])
        assert space.size == 3
        assert space.is_normalized()

    def test_explicit_log_probs(self):
        lp = np.log([0.5, 0.5])
        space = StateSpace.from_masks(2, [0, 3], lp)
        assert np.allclose(space.probs(), [0.5, 0.5])

    def test_mask_beyond_n_items_raises(self):
        with pytest.raises(ValueError):
            StateSpace.from_masks(2, [8])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            StateSpace.from_masks(2, [])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            StateSpace(2, np.array([0, 1], dtype=np.uint64), np.zeros(3))


class TestProperties:
    def test_probs_normalizes_unnormalized(self):
        space = StateSpace.from_masks(2, [0, 1], np.log([2.0, 6.0]))
        assert np.allclose(space.probs(), [0.25, 0.75])

    def test_log_total_mass(self):
        space = StateSpace.from_masks(1, [0, 1], np.log([1.0, 3.0]))
        assert space.log_total_mass == pytest.approx(np.log(4.0))

    def test_copy_is_independent(self):
        space = StateSpace.dense(2)
        clone = space.copy()
        clone.log_probs[0] = -50.0
        assert space.log_probs[0] != -50.0

    def test_len(self):
        assert len(StateSpace.dense(3)) == 8

    def test_normalize_method(self):
        space = StateSpace.from_masks(2, [0, 1], np.array([1.0, 2.0]))
        space.normalize()
        assert space.is_normalized()

    def test_uint64_coercion(self):
        space = StateSpace(2, np.array([0, 1]), np.zeros(2))
        assert space.masks.dtype == np.uint64

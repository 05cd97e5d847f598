"""Pruning: mass coverage guarantees and bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lattice.builder import build_dense_prior
from repro.lattice.prune import prune_by_mass
from repro.lattice.states import StateSpace


class TestPruneByMass:
    def test_keeps_requested_mass(self):
        space = build_dense_prior(np.full(6, 0.05))
        result = prune_by_mass(space, 1e-3)
        assert result.dropped_mass <= 1e-3 + 1e-12

    def test_result_normalized(self):
        space = build_dense_prior(np.full(5, 0.1))
        assert prune_by_mass(space, 0.01).space.is_normalized()

    def test_epsilon_zero_keeps_positive_mass_states(self):
        space = build_dense_prior(np.full(4, 0.2))
        result = prune_by_mass(space, 0.0)
        assert result.kept_states == 16
        assert result.dropped_mass == 0.0

    def test_map_state_survives(self):
        space = build_dense_prior(np.full(8, 0.02))
        before = int(space.masks[np.argmax(space.log_probs)])
        result = prune_by_mass(space, 0.5)
        assert before in result.space.masks.tolist()

    def test_counts_add_up(self):
        space = build_dense_prior(np.full(6, 0.1))
        result = prune_by_mass(space, 0.05)
        assert result.kept_states + result.dropped_states == 64
        assert result.space.size == result.kept_states

    def test_aggressive_prune_shrinks_hard(self):
        space = build_dense_prior(np.full(10, 0.01))
        result = prune_by_mass(space, 0.1)
        assert result.kept_states < 64  # low prevalence: mass is concentrated

    def test_invalid_epsilon(self):
        space = StateSpace.dense(2)
        for eps in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                prune_by_mass(space, eps)

    def test_linear_extension_preserved(self):
        space = build_dense_prior(np.full(5, 0.2))
        result = prune_by_mass(space, 0.2)
        masks = result.space.masks
        assert all(masks[i] < masks[i + 1] for i in range(len(masks) - 1))

    @settings(max_examples=25)
    @given(
        risks=st.lists(st.floats(0.01, 0.4), min_size=2, max_size=8).map(np.array),
        eps=st.floats(0.0001, 0.5),
    )
    def test_mass_guarantee_property(self, risks, eps):
        space = build_dense_prior(risks)
        result = prune_by_mass(space, eps)
        assert result.dropped_mass <= eps + 1e-9
        assert result.space.is_normalized()


"""Bayesian Halving Algorithm: objective and pool choice."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.halving.bha import halving_objective, select_halving_pool
from repro.halving.candidates import ExhaustiveCandidates
from repro.lattice.builder import build_dense_prior
from repro.lattice.ops import down_set_mass
from repro.lattice.states import StateSpace
from repro.sbgt.distributed_lattice import DistributedLattice


def belief(space: StateSpace) -> DistributedLattice:
    """The exact belief state over *space* (the rule reads its statistics)."""
    return DistributedLattice.from_state_space(None, space)


class TestDownSetMasses:
    def test_matches_single_pool_op(self):
        space = build_dense_prior(np.array([0.1, 0.3, 0.2]))
        pools = np.array([0b001, 0b011, 0b111], dtype=np.uint64)
        masses = belief(space).down_set_masses(pools)
        expected = [down_set_mass(space, int(p)) for p in pools]
        assert np.allclose(masses, expected, atol=1e-12)

    def test_stable_for_unnormalized(self):
        space = build_dense_prior(np.array([0.1, 0.3]))
        space.log_probs += 500.0  # wildly unnormalised
        masses = belief(space).down_set_masses(np.array([0b01], dtype=np.uint64))
        assert masses[0] == pytest.approx(0.9)

    def test_uniform_half(self):
        space = StateSpace.dense(4)
        masses = belief(space).down_set_masses(np.array([0b0001], dtype=np.uint64))
        assert masses[0] == pytest.approx(0.5)


class TestHalvingObjective:
    def test_at_half_is_zero(self):
        assert halving_objective(np.array([0.5]))[0] == 0.0

    def test_symmetric(self):
        gaps = halving_objective(np.array([0.3, 0.7]))
        assert gaps[0] == pytest.approx(gaps[1])


class TestSelectHalvingPool:
    def test_uniform_lattice_singleton_is_perfect(self):
        space = StateSpace.dense(4)
        pools = ExhaustiveCandidates(max_pool_size=3).generate(np.zeros(4), 0b1111)
        pool, mass, gap = select_halving_pool(belief(space), pools)
        assert gap == pytest.approx(0.0)
        assert bin(pool).count("1") == 1  # tie-break favours smallest pool

    def test_low_prevalence_prefers_big_pool(self):
        # At 5% prevalence, singleton down-set mass = 0.95 (gap 0.45);
        # pooling ~13 people gets P(all negative) ≈ 0.51 (gap ≈ 0.01).
        space = build_dense_prior(np.full(14, 0.05))
        pools = np.array(
            [(1 << k) - 1 for k in range(1, 15)], dtype=np.uint64
        )  # prefixes
        pool, mass, gap = select_halving_pool(belief(space), pools)
        assert bin(pool).count("1") >= 10
        assert gap < 0.05

    def test_matches_exhaustive_brute_force(self):
        rng = np.random.default_rng(3)
        risks = rng.uniform(0.05, 0.4, size=5)
        space = build_dense_prior(risks)
        pools = ExhaustiveCandidates(max_pool_size=5).generate(np.zeros(5), 0b11111)
        pool, mass, gap = select_halving_pool(belief(space), pools)
        # brute force over the same candidates
        best = min(
            (abs(down_set_mass(space, int(p)) - 0.5), bin(int(p)).count("1"), int(p))
            for p in pools
        )
        assert (gap, bin(pool).count("1"), pool) == pytest.approx(best)

    def test_deterministic(self):
        space = build_dense_prior(np.full(6, 0.1))
        pools = ExhaustiveCandidates(max_pool_size=3).generate(np.zeros(6), 0b111111)
        assert select_halving_pool(belief(space), pools) == select_halving_pool(belief(space), pools)

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            select_halving_pool(belief(StateSpace.dense(2)), np.array([], dtype=np.uint64))

    @settings(max_examples=20)
    @given(risks=st.lists(st.floats(0.05, 0.5), min_size=3, max_size=6).map(np.array))
    def test_selected_gap_is_minimal(self, risks):
        space = build_dense_prior(risks)
        n = len(risks)
        pools = ExhaustiveCandidates(max_pool_size=3).generate(np.zeros(n), (1 << n) - 1)
        _pool, _mass, gap = select_halving_pool(belief(space), pools)
        masses = belief(space).down_set_masses(pools)
        assert gap <= np.abs(masses - 0.5).min() + 1e-12

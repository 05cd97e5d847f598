"""Look-ahead (batch) selection."""

import numpy as np
import pytest

from repro.halving.bha import select_halving_pool
from repro.halving.candidates import ExhaustiveCandidates
from repro.halving.lookahead import batch_balance_objective, select_lookahead_pools
from repro.lattice.builder import build_dense_prior
from repro.lattice.states import StateSpace
from repro.sbgt.distributed_lattice import DistributedLattice


def belief(space: StateSpace) -> DistributedLattice:
    """The exact belief state over *space* (the rule reads its statistics)."""
    return DistributedLattice.from_state_space(None, space)


def cell_masses(space: StateSpace, pools) -> np.ndarray:
    """Mass of each of the ``2^s`` cells *pools* induce, via the look-ahead
    statistic: the last pool refines the partition of the others."""
    *chosen, last = pools
    return belief(space).refined_cell_masses(chosen, [last], 1 << len(pools))[0]


class TestCellMasses:
    def test_sums_to_one(self):
        space = build_dense_prior(np.array([0.1, 0.3, 0.2]))
        masses = cell_masses(space, [0b001, 0b110])
        assert masses.sum() == pytest.approx(1.0)
        assert masses.size == 4

    def test_single_pool_matches_down_set(self):
        from repro.lattice.ops import down_set_mass

        space = build_dense_prior(np.array([0.2, 0.4]))
        masses = cell_masses(space, [0b01])
        assert masses[0] == pytest.approx(down_set_mass(space, 0b01))

    def test_uniform_singletons_perfectly_balanced(self):
        space = StateSpace.dense(3)
        masses = cell_masses(space, [0b001, 0b010, 0b100])
        assert np.allclose(masses, 1 / 8)


class TestBatchBalanceObjective:
    def test_uniform_is_zero(self):
        assert batch_balance_objective(np.full(4, 0.25)) == pytest.approx(0.0)

    def test_point_mass_is_worst(self):
        worst = batch_balance_objective(np.array([1.0, 0.0, 0.0, 0.0]))
        mild = batch_balance_objective(np.array([0.4, 0.3, 0.2, 0.1]))
        assert worst > mild


class TestSelectLookaheadPools:
    def test_s1_matches_bha_choice(self):
        space = build_dense_prior(np.full(6, 0.12))
        cands = ExhaustiveCandidates(max_pool_size=3).generate(np.zeros(6), 0b111111)
        la_pools, _ = select_lookahead_pools(belief(space), cands, 1)
        bha_pool, _, _ = select_halving_pool(belief(space), cands)
        assert la_pools == [bha_pool]

    def test_uniform_lattice_picks_orthogonal_singletons(self):
        space = StateSpace.dense(4)
        cands = ExhaustiveCandidates(max_pool_size=1).generate(np.zeros(4), 0b1111)
        pools, obj = select_lookahead_pools(belief(space), cands, 3)
        assert len(pools) == 3
        assert len(set(pools)) == 3  # distinct pools
        assert obj == pytest.approx(0.0, abs=1e-12)  # singleton bits halve exactly

    def test_no_repeated_pools(self):
        space = build_dense_prior(np.full(5, 0.2))
        cands = ExhaustiveCandidates(max_pool_size=2).generate(np.zeros(5), 0b11111)
        pools, _ = select_lookahead_pools(belief(space), cands, 4)
        assert len(pools) == len(set(pools))

    def test_s_capped_by_candidate_count(self):
        space = StateSpace.dense(3)
        cands = np.array([0b001, 0b010], dtype=np.uint64)
        pools, _ = select_lookahead_pools(belief(space), cands, 5)
        assert len(pools) == 2

    def test_objective_decreases_with_depth(self):
        space = build_dense_prior(np.full(6, 0.3))
        cands = ExhaustiveCandidates(max_pool_size=2).generate(np.zeros(6), 0b111111)
        _, obj1 = select_lookahead_pools(belief(space), cands, 1)
        _, obj3 = select_lookahead_pools(belief(space), cands, 3)
        # Deeper batches measure a harder objective; raw comparability is
        # not guaranteed — but both must be finite and non-negative.
        assert obj1 >= 0 and obj3 >= 0

    def test_invalid_args(self):
        space = StateSpace.dense(2)
        with pytest.raises(ValueError):
            select_lookahead_pools(belief(space), np.array([1], dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            select_lookahead_pools(belief(space), np.array([], dtype=np.uint64), 1)

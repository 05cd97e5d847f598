"""Distributed selector parity with the serial rules."""

import numpy as np
import pytest

from repro.bayes.dilution import BinaryErrorModel, DilutionErrorModel, LogNormalViralLoadModel
from repro.bayes.posterior import Posterior
from repro.bayes.priors import PriorSpec
from repro.halving.bha import select_halving_pool
from repro.halving.candidates import ExhaustiveCandidates, PrefixCandidates
from repro.halving.lookahead import select_lookahead_pools
from repro.halving.policy import InformationGainPolicy
from repro.sbgt.distributed_lattice import DistributedLattice
from repro.sbgt.selector import (
    down_set_masses_distributed,
    select_halving_pool_distributed,
    select_infogain_pool_distributed,
    select_lookahead_pools_distributed,
)


@pytest.fixture
def prior():
    return PriorSpec(np.array([0.03, 0.15, 0.08, 0.25, 0.12, 0.05, 0.2]))


@pytest.fixture
def dl(ctx, prior):
    lattice = DistributedLattice.from_prior(ctx, prior, 4)
    yield lattice
    lattice.unpersist()


@pytest.fixture
def space(prior):
    return prior.build_dense()


ALL = 0b1111111


class TestHalvingParity:
    def test_same_pool_selected(self, dl, space):
        cands = PrefixCandidates().generate(space.marginals(), ALL)
        assert select_halving_pool_distributed(dl, cands) == pytest.approx(
            select_halving_pool(space, cands)
        )

    def test_exhaustive_candidates(self, dl, space):
        cands = ExhaustiveCandidates(max_pool_size=2).generate(space.marginals(), ALL)
        d = select_halving_pool_distributed(dl, cands)
        s = select_halving_pool(space, cands)
        assert d[0] == s[0]
        assert d[1] == pytest.approx(s[1], abs=1e-10)

    def test_down_set_masses_parity(self, dl, space):
        from repro.halving.bha import down_set_masses

        cands = np.array([0b0000001, 0b0011111, ALL], dtype=np.uint64)
        assert np.allclose(
            down_set_masses_distributed(dl, cands),
            down_set_masses(space, cands),
            atol=1e-10,
        )

    def test_empty_candidates_raise(self, dl):
        with pytest.raises(ValueError):
            select_halving_pool_distributed(dl, np.array([], dtype=np.uint64))


class TestUlpRobustTies:
    """Gaps equal in exact arithmetic tie-break by (pool size, mask) in the
    serial and the distributed rule alike, whatever the masses' last bit."""

    POOLS = np.array([0b0110, 0b0001, 0b1000, 0b0011], dtype=np.uint64)
    #: |0.3 − ½| and |0.7 − ½| differ in float64; 0b0001 must still win.
    MASSES = np.array([0.5, 0.3, 0.7, 0.5])

    class FixedMasses:
        def __init__(self, masses, exact=True):
            self.masses, self.exact = masses, exact

        def down_set_masses(self, pool_masks):
            return self.masses

    @staticmethod
    def jittered(seed):
        rng = np.random.default_rng(seed)
        toward = np.where(rng.random(4) < 0.5, 0.0, 1.0)
        return np.nextafter(TestUlpRobustTies.MASSES, toward)

    @pytest.mark.parametrize("seed", range(10))
    def test_distributed_rule(self, seed):
        masses = self.jittered(seed)
        pool, mass, gap = select_halving_pool_distributed(self.FixedMasses(masses), self.POOLS)
        assert pool == 0b0011  # the two exact halves tie; smaller mask of size 2 wins
        assert gap == pytest.approx(0.0, abs=1e-15)
        pool, _, _ = select_halving_pool_distributed(
            self.FixedMasses(masses[1:3]), self.POOLS[1:3]
        )
        assert pool == 0b0001

    def test_approximate_backend_compares_as_computed(self):
        """0.3 and 0.7 are not equally far from ½ in float64: a backend
        that is not exact gets the nearer one, not the tie-break's."""
        masses = self.MASSES[1:3]
        assert abs(masses[1] - 0.5) < abs(masses[0] - 0.5)
        approximate = self.FixedMasses(masses, exact=False)
        assert select_halving_pool_distributed(approximate, self.POOLS[1:3])[0] == 0b1000

    def test_backends_declare_exactness(self, dl):
        from repro.sbgt.particle import ParticlePosterior
        from repro.sbgt.sparse import SparsePosterior

        assert dl.exact and not SparsePosterior.exact and not ParticlePosterior.exact

    @pytest.mark.parametrize("seed", range(10))
    def test_serial_rule(self, seed, space, monkeypatch):
        masses = self.jittered(seed)
        monkeypatch.setattr("repro.halving.bha.down_set_masses", lambda space, pools: masses)
        assert select_halving_pool(space, self.POOLS)[0] == 0b0011
        monkeypatch.setattr("repro.halving.bha.down_set_masses", lambda space, pools: masses[1:3])
        assert select_halving_pool(space, self.POOLS[1:3])[0] == 0b0001


class TestLookaheadParity:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_same_batch_selected(self, dl, space, depth):
        cands = PrefixCandidates().generate(space.marginals(), ALL)
        d_pools, d_obj = select_lookahead_pools_distributed(dl, cands, depth)
        s_pools, s_obj = select_lookahead_pools(space, cands, depth)
        assert d_pools == s_pools
        assert d_obj == pytest.approx(s_obj, abs=1e-10)

    def test_invalid_s(self, dl):
        with pytest.raises(ValueError):
            select_lookahead_pools_distributed(dl, np.array([1], dtype=np.uint64), 0)


class TestInfogainParity:
    @pytest.mark.parametrize(
        "model",
        [BinaryErrorModel(0.95, 0.98), DilutionErrorModel(0.97, 0.99, 0.5)],
        ids=["binary", "dilution"],
    )
    def test_same_pool_selected(self, dl, space, prior, model):
        post = Posterior(space.copy(), model)
        cands = PrefixCandidates().generate(space.marginals(), ALL)
        serial_pool = InformationGainPolicy(PrefixCandidates()).select(post, ALL)[0]
        dist_pool, info = select_infogain_pool_distributed(dl, cands, model)
        assert dist_pool == serial_pool
        assert info > 0

    def test_continuous_model_rejected(self, dl):
        with pytest.raises(ValueError):
            select_infogain_pool_distributed(
                dl, np.array([1], dtype=np.uint64), LogNormalViralLoadModel()
            )

"""The pure-Python dict baseline against the vectorised implementation."""

import numpy as np
import pytest

from repro.baseline.pydict import PyDictLattice, PyDictPosterior
from repro.bayes.dilution import BinaryErrorModel
from repro.halving.bha import select_halving_pool
from repro.lattice.builder import build_dense_prior
from repro.lattice.ops import down_set_mass, entropy, marginals
from repro.sbgt.distributed_lattice import DistributedLattice


@pytest.fixture
def risks():
    return [0.05, 0.2, 0.4, 0.1]


@pytest.fixture
def pair(risks):
    """(dict baseline, numpy reference) over the same prior."""
    return PyDictLattice.from_risks(risks), build_dense_prior(np.array(risks))


class TestFromRisks:
    def test_size(self, pair):
        dict_lat, np_lat = pair
        assert dict_lat.size == np_lat.size == 16

    def test_prior_probs_match(self, pair):
        dict_lat, np_lat = pair
        np_probs = dict(zip(np_lat.masks.tolist(), np_lat.probs()))
        for state, p in dict_lat.probs.items():
            assert p == pytest.approx(np_probs[state], rel=1e-9)

    def test_normalized(self, pair):
        assert pair[0].total_mass() == pytest.approx(1.0)


class TestOperationsMatch:
    def test_marginals(self, pair):
        dict_lat, np_lat = pair
        assert np.allclose(dict_lat.marginals(), marginals(np_lat), atol=1e-10)

    def test_entropy(self, pair):
        dict_lat, np_lat = pair
        assert dict_lat.entropy() == pytest.approx(entropy(np_lat), abs=1e-10)

    def test_down_set_mass(self, pair):
        dict_lat, np_lat = pair
        for pool in (0b0001, 0b0110, 0b1111):
            assert dict_lat.down_set_mass(pool) == pytest.approx(
                down_set_mass(np_lat, pool), abs=1e-12
            )

    def test_bayes_update(self, pair):
        dict_lat, np_lat = pair
        lik = [0.02, 0.7, 0.9]
        dict_lat.bayes_update(0b0011, lik)
        from repro.lattice.ops import posterior_update

        posterior_update(np_lat, 0b0011, np.log(lik))
        np_probs = dict(zip(np_lat.masks.tolist(), np_lat.probs()))
        for state, p in dict_lat.probs.items():
            assert p == pytest.approx(np_probs[state], rel=1e-9)

    def test_halving_selection_matches(self, pair):
        dict_lat, np_lat = pair
        cands = [0b0001, 0b0011, 0b0111, 0b1111, 0b1000]
        d_pool, d_mass, d_gap = dict_lat.select_halving_pool(cands)
        n_pool, n_mass, n_gap = select_halving_pool(
            DistributedLattice.from_state_space(None, np_lat), np.array(cands, dtype=np.uint64)
        )
        assert d_pool == n_pool
        assert d_mass == pytest.approx(n_mass, abs=1e-12)

    def test_map_state_matches(self, pair):
        dict_lat, np_lat = pair
        from repro.lattice.ops import map_state

        assert dict_lat.map_state() == map_state(np_lat)

    def test_top_states_ordering(self, pair):
        dict_lat, _ = pair
        top = dict_lat.top_states(5)
        probs = [p for _s, p in top]
        assert probs == sorted(probs, reverse=True)


class TestManipulation:
    def test_prune_keeps_mass(self):
        lat = PyDictLattice.from_risks([0.05] * 8)
        dropped = lat.prune(0.01)
        assert dropped > 0
        assert lat.total_mass() == pytest.approx(1.0)

    def test_empty_lattice_rejected(self):
        with pytest.raises(ValueError):
            PyDictLattice(2, {})


class TestPyDictPosterior:
    def test_classify(self):
        post = PyDictPosterior([0.1, 0.1], BinaryErrorModel(0.99, 0.99))
        for _ in range(6):
            post.update([0], True)
            post.update([1], False)
        statuses = post.classify()
        assert statuses == ["positive", "negative"]

    def test_num_tests(self):
        post = PyDictPosterior([0.1], BinaryErrorModel())
        post.update([0], False)
        post.update(0b1, False)
        assert post.num_tests == 2

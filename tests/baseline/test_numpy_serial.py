"""NumPy-serial runner matches the Posterior implementation."""

import numpy as np
import pytest

from repro.baseline.numpy_serial import NumpySerialRunner
from repro.bayes.dilution import DilutionErrorModel
from repro.bayes.posterior import Posterior
from repro.bayes.priors import PriorSpec


@pytest.fixture
def prior():
    return PriorSpec(np.array([0.1, 0.3, 0.05, 0.2]))


@pytest.fixture
def model():
    return DilutionErrorModel(0.97, 0.99, 0.4)


class TestNumpySerialRunner:
    def test_update_matches_posterior(self, prior, model):
        runner = NumpySerialRunner(prior, model)
        post = Posterior.from_prior(prior, model)
        for pool, outcome in [(0b0011, True), (0b1100, False)]:
            runner.update(pool, outcome)
            post.update(pool, outcome)
        assert np.allclose(runner.marginals(), post.marginals(), atol=1e-12)
        assert runner.entropy() == pytest.approx(post.entropy(), abs=1e-12)

    def test_halving_matches(self, prior, model):
        runner = NumpySerialRunner(prior, model)
        post = Posterior.from_prior(prior, model)
        cands = [0b0001, 0b0011, 0b0111, 0b1111]
        from repro.halving.bha import select_halving_pool

        assert runner.select_halving_pool(cands) == select_halving_pool(
            post, np.array(cands, dtype=np.uint64)
        )

    def test_counts_tests(self, prior, model):
        runner = NumpySerialRunner(prior, model)
        runner.update(0b1, False)
        assert runner.num_tests == 1

    def test_top_states(self, prior, model):
        runner = NumpySerialRunner(prior, model)
        top = runner.top_states(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]

    def test_n_items(self, prior, model):
        assert NumpySerialRunner(prior, model).n_items == 4

"""DistributedAnalyzer views."""

import numpy as np
import pytest

from repro.bayes.priors import PriorSpec
from repro.sbgt.analyzer import DistributedAnalyzer
from repro.sbgt.distributed_lattice import DistributedLattice


@pytest.fixture
def prior():
    return PriorSpec(np.array([0.02, 0.3, 0.1, 0.25]))


@pytest.fixture
def analyzer(ctx, prior):
    dl = DistributedLattice.from_prior(ctx, prior, 3)
    yield DistributedAnalyzer(dl)
    dl.unpersist()


class TestAnalyzer:
    def test_marginals(self, analyzer, prior):
        assert np.allclose(analyzer.marginals(), prior.risks, atol=1e-10)

    def test_entropy_positive(self, analyzer):
        assert analyzer.entropy() > 0

    def test_map_state_prior_is_all_negative(self, analyzer):
        assert analyzer.map_state() == 0  # low risks: empty set most likely

    def test_top_states_probabilities_sorted(self, analyzer):
        top = analyzer.top_states(4)
        probs = [p for _m, p in top]
        assert probs == sorted(probs, reverse=True)

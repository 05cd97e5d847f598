"""DistributedAnalyzer views."""

import numpy as np
import pytest

from repro.bayes.posterior import Classification
from repro.bayes.dilution import BinaryErrorModel
from repro.bayes.priors import PriorSpec
from repro.sbgt.analyzer import DistributedAnalyzer
from repro.sbgt.distributed_lattice import DistributedLattice
from repro.sbgt.session import SBGTSession


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

    def test_classify_matches_serial(self, ctx, prior):
        model = BinaryErrorModel(0.99, 0.99)
        dl = DistributedLattice.from_prior(ctx, prior, 3)
        analyzer = DistributedAnalyzer(dl)
        post = SBGTSession(None, prior, model)
        ll = model.log_likelihood_by_count(False, 2)
        dl.update(0b0011, ll)
        post.update(0b0011, False)
        d_rep = analyzer.classify(0.9, 0.05)
        s_rep = post.classify(0.9, 0.05)
        assert d_rep.statuses == s_rep.statuses
        dl.unpersist()

    def test_classify_invalid_thresholds(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.classify(0.2, 0.5)

    def test_classify_undetermined_initially(self, analyzer):
        report = analyzer.classify(0.999, 0.001)
        assert all(s is Classification.UNDETERMINED for s in report.statuses)

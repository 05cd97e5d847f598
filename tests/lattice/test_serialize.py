"""Lattice and posterior persistence."""

import numpy as np
import pytest

from repro.bayes.dilution import BinaryErrorModel, LogNormalViralLoadModel
from repro.bayes.posterior import Posterior
from repro.bayes.priors import PriorSpec
from repro.lattice.serialize import load_posterior, save_posterior


class TestPosteriorCheckpoint:
    def _screen_a_bit(self, model, track_entropy=False):
        post = Posterior.from_prior(
            PriorSpec.uniform(6, 0.1), model, track_entropy=track_entropy
        )
        post.begin_stage()
        post.update([0, 1, 2], True)
        post.begin_stage()
        post.update([0], False)
        return post

    def test_round_trip_resumes_identically(self, tmp_path):
        model = BinaryErrorModel(0.95, 0.98)
        post = self._screen_a_bit(model)
        path = tmp_path / "ckpt.npz"
        save_posterior(post, path)
        resumed = load_posterior(path, model)
        assert np.allclose(resumed.marginals(), post.marginals())
        assert resumed.num_tests == post.num_tests
        assert resumed.log.log_evidence == pytest.approx(post.log.log_evidence)
        # Continue both and stay identical.
        post.update([3, 4], False)
        resumed.update([3, 4], False)
        assert np.allclose(resumed.marginals(), post.marginals())

    def test_stage_counter_restored(self, tmp_path):
        model = BinaryErrorModel(0.95, 0.98)
        post = self._screen_a_bit(model)
        path = tmp_path / "c.npz"
        save_posterior(post, path)
        resumed = load_posterior(path, model)
        assert resumed.begin_stage() == 3

    def test_entropy_tracking_flag_restored(self, tmp_path):
        model = BinaryErrorModel(0.95, 0.98)
        post = self._screen_a_bit(model, track_entropy=True)
        path = tmp_path / "e.npz"
        save_posterior(post, path)
        resumed = load_posterior(path, model)
        rec = resumed.update([5], False)
        assert rec.entropy_before is not None

    def test_continuous_outcomes_survive(self, tmp_path):
        model = LogNormalViralLoadModel()
        post = Posterior.from_prior(PriorSpec.uniform(4, 0.1), model)
        post.update([0, 1], 6.5)
        path = tmp_path / "ct.npz"
        save_posterior(post, path)
        resumed = load_posterior(path, model)
        assert resumed.log.records[0].outcome == pytest.approx(6.5)

    def test_contracted_posterior_rejected(self, tmp_path):
        model = BinaryErrorModel(0.95, 0.98)
        post = self._screen_a_bit(model)
        post.settle(5, False)
        with pytest.raises(ValueError):
            save_posterior(post, tmp_path / "x.npz")

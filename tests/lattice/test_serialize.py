"""Session checkpoints: the ``.npz`` v1 format and its restore."""

import json

import numpy as np
import pytest

from repro.bayes.dilution import BinaryErrorModel, LogNormalViralLoadModel
from repro.bayes.priors import PriorSpec
from repro.lattice.serialize import load_posterior, save_posterior
from repro.sbgt.config import SBGTConfig
from repro.sbgt.distributed_lattice import DistributedLattice
from repro.sbgt.session import SBGTSession

PRIOR = PriorSpec.uniform(6, 0.1)


class TestPosteriorCheckpoint:
    def _screen_a_bit(self, model, track_entropy=False):
        post = SBGTSession(None, PRIOR, model, SBGTConfig(track_entropy=track_entropy))
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
        resumed = SBGTSession.load(None, path, PRIOR, model)
        assert isinstance(resumed.lattice, DistributedLattice) and resumed.lattice.ctx is None
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
        post.save(path)
        _, stage, _, _ = load_posterior(path)
        assert stage == 2
        assert SBGTSession.load(None, path, PRIOR, model).begin_stage() == 3

    def test_entropy_tracking_flag_restored(self, tmp_path):
        model = BinaryErrorModel(0.95, 0.98)
        post = self._screen_a_bit(model, track_entropy=True)
        path = tmp_path / "e.npz"
        post.save(path)
        resumed = SBGTSession.load(None, path, PRIOR, model)
        rec = resumed.update([5], False)
        assert rec.entropy_before is not None

    def test_continuous_outcomes_survive(self, tmp_path):
        model = LogNormalViralLoadModel()
        prior = PriorSpec.uniform(4, 0.1)
        post = SBGTSession(None, prior, model)
        post.update([0, 1], 6.5)
        path = tmp_path / "ct.npz"
        post.save(path)
        resumed = SBGTSession.load(None, path, prior, model)
        assert resumed.log.records[0].outcome == pytest.approx(6.5)

    def test_contracted_posterior_rejected(self, tmp_path):
        model = BinaryErrorModel(0.95, 0.98)
        post = self._screen_a_bit(model)
        post.settle(5, False)
        with pytest.raises(ValueError):
            save_posterior(post, tmp_path / "x.npz")


def test_a_v1_file_written_by_hand_restores(tmp_path):
    """The format is the file, not the saver: an ``.npz`` with the v1
    keys, written here with NumPy alone, restores onto a context-free
    session."""
    model = BinaryErrorModel(0.95, 0.98)
    space = PriorSpec.uniform(3, 0.2).build_dense()
    trail = [{"stage": 1, "pool_mask": 3, "pool_size": 2, "outcome": False,
              "log_predictive": -0.4, "entropy_before": None, "entropy_after": None}]
    path = tmp_path / "v1.npz"
    np.savez_compressed(
        path,
        version=np.int64(1),
        n_items=np.int64(3),
        masks=space.masks,
        log_probs=space.log_probs,
        stage=np.int64(1),
        track_entropy=np.bool_(False),
        trail_json=np.bytes_(json.dumps(trail).encode()),
    )
    session = SBGTSession.load(None, path, PriorSpec.uniform(3, 0.2), model)
    np.testing.assert_allclose(session.marginals(), [0.2] * 3, rtol=0, atol=1e-12)
    assert session.num_tests == 1 and session.log.log_evidence == -0.4
    assert session.log.records[0].pool_mask == 3 and session.begin_stage() == 2
    with pytest.raises(ValueError, match="cohort size"):
        SBGTSession.load(None, path, PriorSpec.uniform(4, 0.2), model)

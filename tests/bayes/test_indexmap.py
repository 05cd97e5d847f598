"""CohortIndexMap and contraction of the context-free session."""

import numpy as np
import pytest

from repro.bayes.dilution import PerfectTest
from repro.bayes.indexmap import CohortIndexMap
from repro.bayes.priors import PriorSpec
from repro.sbgt.config import SBGTConfig
from repro.sbgt.session import SBGTSession


class TestCohortIndexMap:
    def test_initially_all_live(self):
        m = CohortIndexMap(4)
        assert m.live == [0, 1, 2, 3]
        assert not m.any_settled

    def test_settle_returns_compact_position(self):
        m = CohortIndexMap(5)
        assert m.settle(2, True) == 2
        # 3 and 4 shifted down
        assert m.compact_position(3) == 2
        assert m.compact_position(4) == 3

    def test_sequential_settles_track_shifts(self):
        m = CohortIndexMap(5)
        m.settle(1, False)
        assert m.settle(3, True) == 2  # 3 sits at compact position 2 now
        assert m.live == [0, 2, 4]

    def test_double_settle_rejected(self):
        m = CohortIndexMap(3)
        m.settle(0, True)
        with pytest.raises(ValueError):
            m.settle(0, False)

    def test_unknown_individual_rejected(self):
        with pytest.raises(ValueError):
            CohortIndexMap(3).settle(7, True)

    def test_mask_round_trip(self):
        m = CohortIndexMap(6)
        m.settle(2, False)
        original = 0b101011  # individuals 0,1,3,5 (none settled)
        compact = m.to_compact_mask(original)
        assert m.to_original_mask(compact) == original

    def test_compact_mask_identity_when_nothing_settled(self):
        m = CohortIndexMap(4)
        assert m.to_compact_mask(0b1010) == 0b1010

    def test_settled_pool_member_rejected(self):
        m = CohortIndexMap(4)
        m.settle(1, True)
        with pytest.raises(ValueError):
            m.to_compact_mask(0b0010)

    def test_settled_positive_mask(self):
        m = CohortIndexMap(4)
        m.settle(1, True)
        m.settle(3, False)
        assert m.settled_positive_mask() == 0b0010

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CohortIndexMap(0)


class TestPosteriorContraction:
    def test_settle_fixes_marginal(self):
        post = SBGTSession(None, PriorSpec.uniform(5, 0.1), PerfectTest())
        post.settle(2, True)
        m = post.marginals()
        assert m[2] == 1.0
        assert len(m) == 5
        assert post.num_live == 4
        assert post.lattice.n_items == 4

    def test_update_in_original_indices(self):
        post = SBGTSession(None, PriorSpec.uniform(5, 0.1), PerfectTest())
        post.settle(0, False)
        post.update([3, 4], False)
        m = post.marginals()
        assert np.allclose(m[[0, 3, 4]], 0.0, atol=1e-12)
        assert np.allclose(m[[1, 2]], 0.1, atol=1e-10)

    def test_pool_with_settled_rejected(self):
        post = SBGTSession(None, PriorSpec.uniform(4, 0.1), PerfectTest())
        post.settle(1, False)
        with pytest.raises(ValueError):
            post.update([1, 2], False)

    def test_map_state_includes_settled_positive(self):
        post = SBGTSession(None, PriorSpec.uniform(4, 0.1), PerfectTest())
        post.settle(3, True)
        assert post.map_state() & 0b1000

    def test_down_set_mass_translated(self):
        post = SBGTSession(None, PriorSpec.uniform(4, 0.2), PerfectTest())
        pools = np.array([0b1100], dtype=np.uint64)
        before = post.down_set_masses(pools)[0]
        post.settle(0, False)
        after = post.down_set_masses(pools)[0]
        assert after == pytest.approx(before, abs=1e-10)  # independent prior

    def test_classify_reports_settled(self):
        post = SBGTSession(None, PriorSpec.uniform(3, 0.2), PerfectTest())
        post.settle(1, True)
        report = post.classify()
        from repro.bayes.posterior import Classification

        assert report.statuses[1] is Classification.POSITIVE

    def test_parity_with_sbgt_session(self, ctx):
        """Context-free and engine contraction agree step for step."""
        prior = PriorSpec.sampled(7, 0.1, rng=2)
        model = PerfectTest()
        post = SBGTSession(None, prior, model)
        session = SBGTSession(ctx, prior, model, SBGTConfig())
        moves = [
            ("update", ([0, 1, 2], False)),
            ("settle", (0, False)),
            ("update", ([3, 4], True)),
            ("settle", (5, False)),
            ("update", ([3], True)),
        ]
        for op, args in moves:
            getattr(post, op)(*args)
            getattr(session, op)(*args)
            assert np.allclose(post.marginals(), session.marginals(), atol=1e-9)
        session.close()

"""Selection policies."""

import pytest

from repro.bayes.dilution import BinaryErrorModel, LogNormalViralLoadModel, PerfectTest
from repro.bayes.priors import PriorSpec
from repro.halving.policy import (
    BHAPolicy,
    DorfmanPolicy,
    IndividualTestingPolicy,
    InformationGainPolicy,
    LookaheadPolicy,
)
from repro.sbgt.config import SBGTConfig
from repro.sbgt.distributed_lattice import DistributedLattice
from repro.sbgt.session import SBGTSession


@pytest.fixture
def posterior():
    return SBGTSession(None, PriorSpec.uniform(8, 0.08), BinaryErrorModel(0.95, 0.98))


ALL_ELIGIBLE = 0xFF


class TestBHAPolicy:
    def test_returns_single_pool(self, posterior):
        pools = BHAPolicy().select(posterior, ALL_ELIGIBLE)
        assert len(pools) == 1
        assert pools[0] != 0

    def test_pool_within_eligible(self, posterior):
        pools = BHAPolicy().select(posterior, 0b00001111)
        assert pools[0] & ~0b00001111 == 0

    def test_deterministic(self, posterior):
        assert BHAPolicy().select(posterior, ALL_ELIGIBLE) == BHAPolicy().select(
            posterior, ALL_ELIGIBLE
        )


class TestLookaheadPolicy:
    def test_returns_depth_pools(self, posterior):
        pools = LookaheadPolicy(depth=3).select(posterior, ALL_ELIGIBLE)
        assert len(pools) == 3

    def test_name_includes_depth(self):
        assert LookaheadPolicy(depth=2).name == "lookahead-2"

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            LookaheadPolicy(depth=0)


class TestInformationGainPolicy:
    def test_single_pool(self, posterior):
        pools = InformationGainPolicy().select(posterior, ALL_ELIGIBLE)
        assert len(pools) == 1

    def test_requires_binary_model(self):
        post = SBGTSession(None, PriorSpec.uniform(4, 0.1), LogNormalViralLoadModel())
        with pytest.raises(ValueError):
            InformationGainPolicy().select(post, 0b1111)

    def test_perfect_test_matches_halving_gap_ranking(self):
        # With a noiseless binary test, mutual information is maximised
        # exactly where |down-set mass − ½| is minimised.
        post = SBGTSession(None, PriorSpec.uniform(6, 0.15), PerfectTest())
        ig_pool = InformationGainPolicy().select(post, 0b111111)[0]
        bha_pool = BHAPolicy().select(post, 0b111111)[0]
        from repro.lattice.ops import down_set_mass

        space = post.lattice.collect()
        assert abs(down_set_mass(space, ig_pool) - 0.5) == pytest.approx(
            abs(down_set_mass(space, bha_pool) - 0.5), abs=1e-9
        )


class TestOneEntryPoint:
    """``policy.select(belief, eligible)`` is the same call for the serial
    posterior, a session and a bare backend, and picks the same pools."""

    @pytest.mark.parametrize(
        "policy", [BHAPolicy, lambda: LookaheadPolicy(2), InformationGainPolicy],
        ids=["bha", "lookahead-2", "infogain"],
    )
    def test_same_pools_from_posterior_and_session(self, ctx, posterior, policy):
        prior, model = PriorSpec.uniform(8, 0.08), posterior.model
        session = SBGTSession(ctx, prior, model, SBGTConfig(num_blocks=2))
        try:
            for belief in (posterior, session):
                belief.update(0b00001111, True)
            assert policy().select(session, ALL_ELIGIBLE) == policy().select(
                posterior, ALL_ELIGIBLE
            )
        finally:
            session.close()

    def test_bare_backend_is_a_belief(self, ctx, posterior):
        lattice = DistributedLattice.from_prior(ctx, PriorSpec.uniform(8, 0.08), 2)
        try:
            for policy in (BHAPolicy(), LookaheadPolicy(2)):
                assert policy.select(lattice, ALL_ELIGIBLE) == policy.select(
                    posterior, ALL_ELIGIBLE
                )
        finally:
            lattice.unpersist()


class TestIndividualTestingPolicy:
    def test_one_singleton_per_eligible(self, posterior):
        pools = IndividualTestingPolicy().select(posterior, 0b1010)
        assert sorted(pools) == [0b0010, 0b1000]

    def test_all_eligible(self, posterior):
        pools = IndividualTestingPolicy().select(posterior, ALL_ELIGIBLE)
        assert len(pools) == 8
        assert all(bin(p).count("1") == 1 for p in pools)


class TestDorfmanPolicy:
    def test_stage_one_fixed_pools(self, posterior):
        policy = DorfmanPolicy(pool_size=3)
        pools = policy.select(posterior, ALL_ELIGIBLE)
        assert len(pools) == 3  # 8 people in pools of 3 → 3+3+2
        assert sum(bin(p).count("1") for p in pools) == 8

    def test_stage_two_singletons(self, posterior):
        policy = DorfmanPolicy(pool_size=4)
        policy.select(posterior, ALL_ELIGIBLE)
        second = policy.select(posterior, 0b0011)
        assert sorted(second) == [0b0001, 0b0010]

    def test_reset_restarts_stages(self, posterior):
        policy = DorfmanPolicy(pool_size=4)
        policy.select(posterior, ALL_ELIGIBLE)
        policy.reset()
        pools = policy.select(posterior, ALL_ELIGIBLE)
        assert all(bin(p).count("1") == 4 for p in pools)

    def test_name(self):
        assert DorfmanPolicy(8).name == "dorfman-8"

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            DorfmanPolicy(0)

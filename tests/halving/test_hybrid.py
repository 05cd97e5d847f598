"""Hybrid (Dorfman → BHA) policy."""

from repro.bayes.dilution import BinaryErrorModel, PerfectTest
from repro.bayes.priors import PriorSpec
from repro.halving.hybrid import HybridPolicy
from repro.halving.policy import BHAPolicy, DorfmanPolicy
from repro.sbgt.config import SBGTConfig
from repro.sbgt.session import SBGTSession
from repro.simulate.population import make_cohort
from repro.workflows.classify import run_screen


class TestStageBehaviour:
    def test_stage_one_is_dorfman_grid(self):
        post = SBGTSession(None, PriorSpec.uniform(8, 0.05), PerfectTest())
        policy = HybridPolicy(pool_size=4)
        pools = policy.select(post, 0xFF)
        assert len(pools) == 2
        assert all(bin(p).count("1") == 4 for p in pools)

    def test_later_stages_are_bha(self):
        post = SBGTSession(None, PriorSpec.uniform(8, 0.05), PerfectTest())
        policy = HybridPolicy(pool_size=4)
        policy.select(post, 0xFF)
        second = policy.select(post, 0xFF)
        assert len(second) == 1  # single halving-optimal pool

    def test_auto_pool_size_follows_risk(self):
        policy = HybridPolicy()  # auto sizing
        low = SBGTSession(None, PriorSpec.uniform(12, 0.01), PerfectTest())
        pools_low = policy.select(low, (1 << 12) - 1)
        policy.reset()
        high = SBGTSession(None, PriorSpec.uniform(12, 0.25), PerfectTest())
        pools_high = policy.select(high, (1 << 12) - 1)
        max_low = max(bin(p).count("1") for p in pools_low)
        max_high = max(bin(p).count("1") for p in pools_high)
        assert max_low > max_high  # bigger pools when prevalence is low

    def test_reset_restores_stage_one(self):
        post = SBGTSession(None, PriorSpec.uniform(6, 0.05), PerfectTest())
        policy = HybridPolicy(pool_size=3)
        policy.select(post, 0b111111)
        policy.select(post, 0b111111)
        policy.reset()
        pools = policy.select(post, 0b111111)
        assert len(pools) == 2

    def test_same_stages_on_a_session(self, ctx):
        """The session needs no dispatch hook: ``select`` is the whole
        interface, grid first and halving afterwards on either belief."""
        prior, model = PriorSpec.uniform(8, 0.05), BinaryErrorModel(0.99, 0.995)
        serial, session = SBGTSession(None, prior, model), SBGTSession(ctx, prior, model)
        try:
            on_serial, on_session = HybridPolicy(pool_size=4), HybridPolicy(pool_size=4)
            for _ in range(3):
                pools = on_serial.select(serial, 0xFF)
                assert on_session.select(session, 0xFF) == pools
                for belief in (serial, session):
                    belief.update(pools[0], True)
        finally:
            session.close()

    def test_name(self):
        assert HybridPolicy(4).name == "hybrid-4"
        assert HybridPolicy().name == "hybrid-auto"


class TestHybridScreens:
    def test_fewer_stages_than_bha_fewer_tests_than_dorfman(self):
        prior = PriorSpec.uniform(12, 0.05)
        model = BinaryErrorModel(0.99, 0.995)
        totals = {"bha": [0, 0], "hybrid": [0, 0], "dorfman": [0, 0]}
        factories = {
            "bha": BHAPolicy,
            "hybrid": lambda: HybridPolicy(),
            "dorfman": lambda: DorfmanPolicy(5),
        }
        for seed in range(8):
            cohort = make_cohort(prior, rng=900 + seed)
            for name, factory in factories.items():
                res = run_screen(
                    prior, model, factory(), rng=seed, cohort=cohort,
                    config=SBGTConfig(max_stages=60),
                )
                totals[name][0] += res.efficiency.num_tests
                totals[name][1] += res.stages_used
        assert totals["hybrid"][1] <= totals["bha"][1]  # fewer lab rounds
        assert totals["hybrid"][0] <= totals["dorfman"][0] + 2  # ~Dorfman tests or better

    def test_perfect_accuracy_with_perfect_test(self):
        prior = PriorSpec.uniform(10, 0.08)
        res = run_screen(prior, PerfectTest(), HybridPolicy(), rng=4)
        assert res.accuracy == 1.0

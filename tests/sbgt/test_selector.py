"""One selector per rule: every belief state answers the same statistics.

The halving, look-ahead and information-gain rules live once, in
:mod:`repro.halving`, and read a *belief*: an
:class:`~repro.sbgt.session.SBGTSession` (with or without an engine
context) or a bare backend.  These tests pin what that buys — equal
statistics, equal pools, equal screens — and the coordinates each speaks
(sessions original cohort indices, a backend its own bits).
"""

import numpy as np
import pytest

from repro.bayes.dilution import BinaryErrorModel, DilutionErrorModel, LogNormalViralLoadModel
from repro.bayes.priors import PriorSpec
from repro.engine import Context
from repro.halving.bha import select_halving_pool
from repro.halving.candidates import ExhaustiveCandidates, PrefixCandidates
from repro.halving.infogain import select_infogain_pool
from repro.halving.lookahead import select_lookahead_pools
from repro.halving.policy import InformationGainPolicy
from repro.sbgt.config import SBGTConfig
from repro.lattice import ops as lops
from repro.sbgt.distributed_lattice import DistributedLattice
from repro.sbgt.session import SBGTSession
from repro.sbgt.sparse import SparsePosterior
from repro.workflows.classify import run_screen
from repro.workflows.payloads import make_policy

BINARY = BinaryErrorModel(0.95, 0.98)


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


@pytest.fixture
def serial(prior):
    """The context-free session: one driver-resident block."""
    return SBGTSession(None, prior, BINARY)


ALL = 0b1111111


class TestStatisticsParity:
    """Context-free session ≡ ``DistributedLattice`` ≡ ``SparsePosterior(floor=0)``."""

    POOLS = np.array([0b0000001, 0b0011111, 0b0101010, ALL], dtype=np.uint64)

    @pytest.mark.parametrize(
        "statistic",
        [
            lambda b, pools: b.down_set_masses(pools),
            lambda b, pools: b.pool_count_hists(pools),
            lambda b, pools: b.refined_cell_masses([], pools, 2),
            lambda b, pools: b.refined_cell_masses([0b0000110, 0b1000001], pools, 8),
        ],
        ids=["down_set_masses", "pool_count_hists", "refined_cells-1", "refined_cells-3"],
    )
    def test_same_numbers_from_every_belief(self, dl, serial, prior, statistic):
        sparse = SparsePosterior.from_prior(prior, floor=0.0)
        reference = statistic(serial, self.POOLS)
        assert reference.shape[0] == self.POOLS.size
        for belief in (dl, sparse):
            np.testing.assert_allclose(statistic(belief, self.POOLS), reference, atol=1e-12)

    def test_every_belief_declares_exactness(self, dl, serial, ctx, prior):
        session = SBGTSession(None, prior, BINARY, SBGTConfig(backend="sparse"))
        assert serial.exact and dl.exact
        assert not session.exact and not session.lattice.exact


class TestHalvingParity:
    def test_same_pool_selected(self, dl, serial, space):
        cands = PrefixCandidates().generate(space.marginals(), ALL)
        assert select_halving_pool(dl, cands) == pytest.approx(
            select_halving_pool(serial, cands)
        )

    def test_exhaustive_candidates(self, dl, serial, space):
        cands = ExhaustiveCandidates(max_pool_size=2).generate(space.marginals(), ALL)
        d = select_halving_pool(dl, cands)
        s = select_halving_pool(serial, cands)
        assert d[0] == s[0]
        assert d[1] == pytest.approx(s[1], abs=1e-10)

    def test_down_set_masses_parity(self, dl, serial):
        cands = np.array([0b0000001, 0b0011111, ALL], dtype=np.uint64)
        assert np.allclose(dl.down_set_masses(cands), serial.down_set_masses(cands), atol=1e-10)

    def test_empty_candidates_raise(self, dl):
        with pytest.raises(ValueError):
            select_halving_pool(dl, np.array([], dtype=np.uint64))


class TestUlpRobustTies:
    """Gaps equal in exact arithmetic tie-break by (pool size, mask),
    whatever the masses' last bit and whichever belief computed them."""

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
        """A bare backend's masses (a stub here), an ulp off either way."""
        masses = self.jittered(seed)
        pool, mass, gap = select_halving_pool(self.FixedMasses(masses), self.POOLS)
        assert pool == 0b0011  # the two exact halves tie; smaller mask of size 2 wins
        assert gap == pytest.approx(0.0, abs=1e-15)
        pool, _, _ = select_halving_pool(self.FixedMasses(masses[1:3]), self.POOLS[1:3])
        assert pool == 0b0001

    def test_approximate_backend_compares_as_computed(self):
        """0.3 and 0.7 are not equally far from ½ in float64: a backend
        that is not exact gets the nearer one, not the tie-break's."""
        masses = self.MASSES[1:3]
        assert abs(masses[1] - 0.5) < abs(masses[0] - 0.5)
        approximate = self.FixedMasses(masses, exact=False)
        assert select_halving_pool(approximate, self.POOLS[1:3])[0] == 0b1000

    def test_backends_declare_exactness(self, dl):
        from repro.sbgt.particle import ParticlePosterior

        assert dl.exact and not SparsePosterior.exact and not ParticlePosterior.exact

    @pytest.mark.parametrize("seed", range(10))
    def test_serial_rule(self, seed, serial, monkeypatch):
        """The context-free session goes through the same ordering."""
        masses = self.jittered(seed)
        monkeypatch.setattr(DistributedLattice, "down_set_masses", lambda self, pools: masses)
        assert select_halving_pool(serial, self.POOLS)[0] == 0b0011
        monkeypatch.setattr(DistributedLattice, "down_set_masses", lambda self, pools: masses[1:3])
        assert select_halving_pool(serial, self.POOLS[1:3])[0] == 0b0001


class TestLookaheadParity:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_same_batch_selected(self, dl, serial, space, depth):
        cands = PrefixCandidates().generate(space.marginals(), ALL)
        d_pools, d_obj = select_lookahead_pools(dl, cands, depth)
        s_pools, s_obj = select_lookahead_pools(serial, cands, depth)
        assert d_pools == s_pools
        assert d_obj == pytest.approx(s_obj, abs=1e-10)

    def test_invalid_s(self, dl):
        with pytest.raises(ValueError):
            select_lookahead_pools(dl, np.array([1], dtype=np.uint64), 0)


class TestInfogainParity:
    @pytest.mark.parametrize(
        "model",
        [BinaryErrorModel(0.95, 0.98), DilutionErrorModel(0.97, 0.99, 0.5)],
        ids=["binary", "dilution"],
    )
    def test_same_pool_selected(self, dl, prior, space, model):
        post = SBGTSession(None, prior, model)
        cands = PrefixCandidates().generate(space.marginals(), ALL)
        policy_pool = InformationGainPolicy(PrefixCandidates()).select(post, ALL)[0]
        dist_pool, info = select_infogain_pool(dl, cands, model)
        assert dist_pool == policy_pool == select_infogain_pool(post, cands, model)[0]
        assert info > 0

    def test_continuous_model_rejected(self, dl):
        with pytest.raises(ValueError):
            select_infogain_pool(dl, np.array([1], dtype=np.uint64), LogNormalViralLoadModel())


# ---------------------------------------------------------------------------
# whole screens: context-free and engine sessions pick the same pools
# ---------------------------------------------------------------------------
SWEEP_PRIORS = {
    "uniform": lambda seed: PriorSpec.uniform(8, 0.08),
    "sampled": lambda seed: PriorSpec.sampled(8, 0.08, rng=1000 + seed),
}


@pytest.fixture(scope="module", params=["serial", "threads", "processes"])
def mode_ctx(request):
    with Context(mode=request.param, parallelism=2) as c:
        yield c


@pytest.mark.parametrize("prior_kind", sorted(SWEEP_PRIORS))
@pytest.mark.parametrize("policy", ["bha", "lookahead-2", "infogain", "hybrid"])
def test_serial_and_session_screens_test_the_same_pools(mode_ctx, policy, prior_kind):
    """4 policies × 2 priors × 10 seeds, in every executor mode."""
    config = SBGTConfig(max_stages=40)
    for seed in range(10):
        prior = SWEEP_PRIORS[prior_kind](seed)
        serial = run_screen(prior, BINARY, make_policy(policy), rng=seed, config=config)
        session = SBGTSession(mode_ctx, prior, BINARY, config.with_(num_blocks=2))
        try:
            dist = session.run_screen(make_policy(policy), rng=seed)
        finally:
            session.close()
        tested = [(r.stage, r.pool_mask, r.outcome) for r in serial.posterior.log.records]
        assert [(r.stage, r.pool_mask, r.outcome) for r in session.log.records] == tested, seed
        assert dist.report.statuses == serial.report.statuses, seed


# ---------------------------------------------------------------------------
# contraction: statistics stay in original cohort indices
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "settled",
    [{0: False}, {2: True}, {0: False, 4: True}],
    ids=["negative", "positive", "both"],
)
@pytest.mark.parametrize("policy", ["bha", "lookahead-2", "infogain"])
def test_settled_beliefs_select_the_same_original_index_pools(ctx, policy, settled):
    """After ``settle()`` the lattice is compact but pools are not: both
    sessions translate original-index masks, whatever their backend."""
    prior = PriorSpec(np.array([0.05, 0.2, 0.1, 0.3, 0.15, 0.08]))
    serial = SBGTSession(None, prior, BINARY)
    session = SBGTSession(ctx, prior, BINARY, SBGTConfig(compact_classified=True))
    try:
        for belief in (serial, session):
            belief.update(0b001110, True)
            for individual, positive in settled.items():
                belief.settle(individual, positive)
        live = sum(1 << i for i in range(6) if i not in settled)
        pools = make_policy(policy).select(serial, live)
        assert pools == make_policy(policy).select(session, live)
        assert all(pool & ~live == 0 for pool in pools)
        # The uncontracted reference: the same evidence on the full
        # lattice, conditioned on the settled calls (original indices).
        table = BINARY.log_likelihood_by_count(True, 3)
        updated = lops.posterior_update(prior.build_dense(), 0b001110, table)
        positive = sum(1 << i for i, p in settled.items() if p)
        negative = sum(1 << i for i, p in settled.items() if not p)
        reference = lops.condition_on_classification(updated, positive, negative)
        np.testing.assert_allclose(
            serial.down_set_masses(np.array(pools, dtype=np.uint64)),
            [lops.down_set_mass(reference, pool) for pool in pools],
            atol=1e-12,
        )
    finally:
        session.close()

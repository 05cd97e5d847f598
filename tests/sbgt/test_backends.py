"""The PosteriorBackend contract: conformance, exactness, convergence.

Three implementations sit behind one protocol; these tests pin

* protocol conformance — every backend answers the full surface with
  the right shapes and invariants;
* sparse exactness — at ``floor=0`` on an exhaustive support the
  sparse backend reproduces the dense lattice bit-for-bit;
* particle convergence — seeded determinism plus tolerance-bounded
  agreement with the exact posterior;
* the redesigned boundaries — ``make_posterior`` factory, the shared
  ``PruneStats`` type, and backend-aware request payloads.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.bayes.dilution import DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.halving.bha import select_halving_pool
from repro.halving.infogain import select_infogain_pool
from repro.halving.lookahead import select_lookahead_pools
from repro.halving.policy import BHAPolicy
from repro.lattice.prune import PruneStats, prune_by_mass
from repro.sbgt.backend import BACKENDS, PosteriorBackend
from repro.sbgt.config import SBGTConfig
from repro.sbgt.distributed_lattice import DistributedLattice
from repro.sbgt.particle import ParticlePosterior
from repro.sbgt.session import SBGTSession
from repro.sbgt.sparse import SparsePosterior
from repro.workflows.payloads import make_posterior

MODEL = DilutionErrorModel(0.97, 0.99, 0.35)
N = 6
PRIOR = PriorSpec(np.array([0.05, 0.2, 0.1, 0.3, 0.15, 0.08]))


#: Every backend, plus the dense lattice on its driver plane (no context).
BUILDS = BACKENDS + ("dense-driver",)


def _build(backend: str, ctx) -> PosteriorBackend:
    if backend == "dense-driver":
        backend, ctx = "dense", None
    return make_posterior(
        PRIOR, ctx, SBGTConfig(backend=backend, sparse_floor=0.0, num_particles=512)
    )


def _ll(outcome: bool, pool: int) -> np.ndarray:
    return MODEL.log_likelihood_by_count(outcome, bin(pool).count("1"))


# ---------------------------------------------------------------------------
# protocol conformance, all three backends
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BUILDS)
def test_protocol_conformance(backend, ctx):
    post = _build(backend, ctx)
    assert isinstance(post, PosteriorBackend)
    assert post.n_items == N
    assert post.num_blocks >= 1
    assert post.num_states() > 0

    log_pred = post.update(0b000111, _ll(True, 0b000111))
    assert isinstance(log_pred, float) and np.isfinite(log_pred) and log_pred < 0.0

    marg = post.marginals()
    assert marg.shape == (N,)
    assert np.all((marg >= 0.0) & (marg <= 1.0))

    ent = post.entropy()
    assert np.isfinite(ent) and ent >= 0.0

    top = post.top_states(3)
    probs = [p for _, p in top]
    assert len(top) == min(3, post.num_states())
    assert probs == sorted(probs, reverse=True)
    assert all(isinstance(m, int) for m, _ in top)
    assert post.map_state() == top[0][0]

    pools = np.array([0b000011, 0b001100, 0b110000], dtype=np.uint64)
    masses = post.down_set_masses(pools)
    assert masses.shape == (3,)
    assert np.all((masses >= 0.0) & (masses <= 1.0 + 1e-12))

    hists = post.pool_count_hists(pools)
    assert hists.shape == (3, 3)  # max pool size 2 -> counts 0..2
    assert np.allclose(hists.sum(axis=1), 1.0, atol=1e-9)
    (dist,) = post.pool_count_hists(np.array([0b000111], dtype=np.uint64))
    assert dist.shape == (4,)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    cells = post.refined_cell_masses((0b000011,), pools, 4)
    assert cells.shape == (3, 4)

    stats = post.prune(1e-12)
    assert isinstance(stats, PruneStats)
    assert stats.kept_states + stats.dropped_states > 0

    post.rebalance()  # must be callable on every backend (no-op off-engine)

    space = post.collect()
    assert space.n_items == N
    assert np.isfinite(space.log_probs).all()

    post.unpersist()


@pytest.mark.parametrize("backend", BUILDS)
def test_selectors_speak_the_protocol(backend, ctx):
    post = _build(backend, ctx)
    post.update(0b000111, _ll(True, 0b000111))
    cands = np.array([0b000011, 0b000101, 0b011000, 0b100001], dtype=np.uint64)

    pool, gap, mass = select_halving_pool(post, cands)
    assert int(pool) in {int(c) for c in cands}
    assert 0.0 <= mass <= 1.0 and gap >= 0.0

    pool, gain = select_infogain_pool(post, cands, MODEL)
    assert int(pool) in {int(c) for c in cands}
    assert np.isfinite(gain)

    pools, obj = select_lookahead_pools(post, cands, 2)
    assert len(pools) == 2 and np.isfinite(obj)
    post.unpersist()


def test_map_state_on_empty_posterior_raises():
    post = SparsePosterior.from_prior(PRIOR, floor=0.0)
    post.log_weights = post.log_weights[:0]
    post.states = post.states[:0]
    with pytest.raises(ValueError, match="empty posterior"):
        post.map_state()


def _belief(post: PosteriorBackend):
    space = post.collect()
    return (post.num_states(), post.marginals().tolist(), space.masks.tolist(),
            space.log_probs.tolist())


# ---------------------------------------------------------------------------
# sparse exactness: floor=0 on an exhaustive support == dense, bit for bit
# ---------------------------------------------------------------------------
def _updated_pair(ctx):
    dense = DistributedLattice.from_prior(ctx, PRIOR, 4)
    sparse = SparsePosterior.from_prior(PRIOR, floor=0.0)
    steps = [(0b000111, True), (0b111000, False), (0b010101, True)]
    for pool, outcome in steps:
        lp_dense = dense.update(pool, _ll(outcome, pool))
        lp_sparse = sparse.update(pool, _ll(outcome, pool))
        assert lp_sparse == pytest.approx(lp_dense, abs=1e-12)
    return dense, sparse


def test_sparse_floor0_matches_dense(ctx):
    dense, sparse = _updated_pair(ctx)
    try:
        assert np.allclose(sparse.marginals(), dense.marginals(), atol=1e-12)
        assert sparse.entropy() == pytest.approx(dense.entropy(), abs=1e-12)

        pools = np.array([0b000011, 0b001100, 0b110000, 0b010010], dtype=np.uint64)
        assert np.allclose(
            sparse.down_set_masses(pools), dense.down_set_masses(pools), atol=1e-12
        )
        for table in (pools, np.array([0b001111], dtype=np.uint64)):
            assert np.allclose(
                sparse.pool_count_hists(table), dense.pool_count_hists(table), atol=1e-12
            )
        assert np.allclose(
            sparse.refined_cell_masses((0b000011,), pools, 4),
            dense.refined_cell_masses((0b000011,), pools, 4),
            atol=1e-12,
        )

        assert sparse.map_state() == dense.map_state()
        for (m_s, p_s), (m_d, p_d) in zip(sparse.top_states(8), dense.top_states(8)):
            assert m_s == m_d
            assert p_s == pytest.approx(p_d, abs=1e-12)

        s_space, d_space = sparse.collect(), dense.collect()
        assert np.array_equal(s_space.masks, d_space.masks)
        assert np.allclose(s_space.probs(), d_space.probs(), atol=1e-12)
    finally:
        dense.unpersist()


def test_sparse_condition_and_project_match_dense(ctx):
    dense, sparse = _updated_pair(ctx)
    try:
        for post in (dense, sparse):
            post.project_out_bit(5, False)
            post.project_out_bit(0, True)
        assert sparse.n_items == dense.n_items == N - 2
        assert np.allclose(sparse.marginals(), dense.marginals(), atol=1e-12)
        assert sparse.entropy() == pytest.approx(dense.entropy(), abs=1e-12)
    finally:
        dense.unpersist()


def test_sparse_prune_matches_serial_reference():
    """The sparse backend's exact prune is the smallest high-mass core."""
    serial = DistributedLattice.from_prior(None, PRIOR)
    sparse = SparsePosterior.from_prior(PRIOR, floor=0.0)
    serial.update(0b000111, _ll(True, 0b000111))
    sparse.update(0b000111, _ll(True, 0b000111))
    eps = 1e-4
    st_serial = prune_by_mass(serial.collect(), eps)
    st_sparse = sparse.prune(eps)
    assert st_sparse.kept_states == st_serial.kept_states
    assert st_sparse.dropped_states == st_serial.dropped_states
    assert st_sparse.dropped_mass == pytest.approx(st_serial.dropped_mass, abs=1e-12)
    assert np.array_equal(sparse.collect().masks, st_serial.space.masks)


def test_sparse_session_screen_replays_dense(ctx):
    """Same cohort + rng: a sparse floor=0 session replays the dense
    screen move for move (the protocol version of the serial/distributed
    determinism contract).

    The prior is distinct-valued on purpose: a symmetric (uniform) prior
    produces exactly tied marginals, and the two backends reduce sums in
    different orders, so one-ulp noise can flip the argsort of a tie and
    legitimately change which of two equivalent pools gets proposed.
    """
    prior = PriorSpec([0.04, 0.07, 0.11, 0.05, 0.09, 0.13, 0.06, 0.08])
    results = {}
    for backend in ("dense", "sparse"):
        config = SBGTConfig(backend=backend, sparse_floor=0.0, max_stages=40)
        session = SBGTSession(ctx if backend == "dense" else None, prior, MODEL, config)
        try:
            results[backend] = session.run_screen(BHAPolicy(), rng=11)
        finally:
            session.close()
    dense, sparse = results["dense"], results["sparse"]
    assert sparse.efficiency.num_tests == dense.efficiency.num_tests
    assert sparse.stages_used == dense.stages_used
    assert sparse.report.statuses == dense.report.statuses
    assert np.allclose(sparse.report.marginals, dense.report.marginals, atol=1e-9)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_session_orders_candidates_by_the_backends_key(backend, ctx):
    """Only an exact backend's marginals are quantised before they order
    the candidates; an approximate backend's go in as computed (the
    sparse screens of a uniform cohort follow their last bits, and the
    benchmark's corpus is labelled with the tests they then take)."""
    from repro.halving.candidates import PrefixCandidates
    from repro.util.numerics import tie_key

    seen = []

    class Spy(PrefixCandidates):
        def generate(self, marginals, eligible_mask):
            seen.append(np.array(marginals))
            return super().generate(marginals, eligible_mask)

    config = SBGTConfig(backend=backend)
    session = SBGTSession(ctx if backend == "dense" else None, PriorSpec.uniform(9, 0.03),
                          MODEL, config)
    try:
        session.update(0b000000111, True)
        BHAPolicy(Spy()).select(session, (1 << 9) - 1)
        marginals = session.marginals()
    finally:
        session.close()
    expected = tie_key(marginals) if backend == "dense" else marginals
    assert np.array_equal(seen[0], expected)


def test_sparse_rank_seeding_respects_max_states():
    prior = PriorSpec.uniform(40, 0.03)
    post = SparsePosterior.from_prior(prior, max_states=5000)
    assert post.num_states() <= 5000
    # Support is seeded by whole rank levels: 1 + 40 + C(40,2) = 821.
    assert post.num_states() == 821
    assert post.log_discarded_prior > -np.inf  # some prior mass truncated


# ---------------------------------------------------------------------------
# particle backend: determinism and convergence
# ---------------------------------------------------------------------------
def test_particle_is_deterministic_given_seed():
    runs = []
    for _ in range(2):
        post = ParticlePosterior(PRIOR, num_particles=256, rng=42)
        post.update(0b000111, _ll(True, 0b000111))
        post.update(0b110001, _ll(False, 0b110001))
        runs.append(post.marginals())
    assert np.array_equal(runs[0], runs[1])

    other = ParticlePosterior(PRIOR, num_particles=256, rng=43)
    other.update(0b000111, _ll(True, 0b000111))
    other.update(0b110001, _ll(False, 0b110001))
    assert not np.array_equal(runs[0], other.marginals())


def test_particle_converges_to_exact_marginals():
    exact = SBGTSession(None, PRIOR, MODEL)
    post = ParticlePosterior(PRIOR, num_particles=8192, rng=5)
    for pool, outcome in [(0b000111, True), (0b111000, False)]:
        exact.update(pool, outcome)
        post.update(pool, _ll(outcome, pool))
    assert np.max(np.abs(post.marginals() - exact.marginals())) < 0.05
    assert post.entropy() == pytest.approx(exact.entropy(), abs=0.35)


def test_particle_resamples_on_ess_collapse():
    post = ParticlePosterior(PRIOR, num_particles=512, rng=1, ess_threshold=0.9)
    # A run of decisive outcomes collapses the weights; the threshold at
    # 0.9 forces resampling, after which weights are uniform again.
    for pool, outcome in [(0b000001, True), (0b000001, True), (0b000001, True)]:
        post.update(pool, _ll(outcome, pool))
    w = np.exp(post.log_weights - post.log_weights.max())
    w /= w.sum()
    ess = 1.0 / np.sum(w**2)
    assert ess > 0.5 * post.num_particles


# ---------------------------------------------------------------------------
# factory, shared PruneStats, payloads
# ---------------------------------------------------------------------------
def test_make_posterior_dispatch(ctx):
    on_engine = make_posterior(PRIOR, ctx)
    assert isinstance(on_engine, DistributedLattice) and on_engine.ctx is ctx
    on_driver = make_posterior(PRIOR)
    assert isinstance(on_driver, DistributedLattice) and on_driver.ctx is None
    assert SBGTSession(None, PRIOR, MODEL).lattice.ctx is None
    assert isinstance(make_posterior(PRIOR, config=SBGTConfig(backend="sparse")), SparsePosterior)
    particle = make_posterior(PRIOR, config=SBGTConfig(backend="particle"))
    assert isinstance(particle, ParticlePosterior)
    with pytest.raises(ValueError, match="backend must be one of"):
        SBGTConfig(backend="exactly")
    # The rank-restricted lattice runs without a context too.
    restricted = make_posterior(PRIOR, config=SBGTConfig(max_positives=2))
    assert restricted.ctx is None and restricted.num_states() == 1 + N + N * (N - 1) // 2
    assert restricted.log_discarded_prior < 0.0
    session = SBGTSession(None, PRIOR, MODEL, SBGTConfig(backend="dense", max_positives=2))
    assert session.lattice.ctx is None
    assert session.log_discarded_prior == restricted.log_discarded_prior


def test_prune_stats_is_one_type_everywhere():
    from repro.lattice import PruneStats as lattice_stats
    from repro.sbgt.distributed_lattice import PruneStats as sbgt_stats

    assert lattice_stats is sbgt_stats is PruneStats


def test_backend_field_keeps_dense_payloads_byte_identical():
    from repro.serve.protocol import BadRequest, ScreenRequest, SessionCreateRequest

    default = ScreenRequest.from_payload({"cohort": 6, "prevalence": 0.05})
    explicit = ScreenRequest.from_payload(
        {"cohort": 6, "prevalence": 0.05, "backend": "dense"}
    )
    assert "backend" not in default.canonical()
    assert default.canonical() == explicit.canonical()
    assert default.key() == explicit.key()

    sparse = ScreenRequest.from_payload(
        {"cohort": 6, "prevalence": 0.05, "backend": "sparse"}
    )
    assert sparse.canonical()["backend"] == "sparse"
    assert sparse.key() != default.key()
    assert sparse.build()[3].backend == "sparse"

    with pytest.raises(BadRequest, match="unknown posterior backend"):
        ScreenRequest.from_payload({"cohort": 6, "backend": "exact"})
    assert "backend" not in SessionCreateRequest.from_payload({"cohort": 6}).canonical()


def test_backend_field_lifts_dense_cohort_bound():
    from repro.serve.protocol import (
        MAX_COHORT,
        MAX_COHORT_APPROX,
        BadRequest,
        CalculatorRequest,
        ScreenRequest,
    )

    with pytest.raises(BadRequest, match=r"cohort must be in \[1, 24\]"):
        ScreenRequest.from_payload({"cohort": MAX_COHORT + 1, "prevalence": 0.05})
    req = ScreenRequest.from_payload(
        {"cohort": 100, "prevalence": 0.05, "backend": "sparse"}
    )
    assert req.cohort == 100
    with pytest.raises(BadRequest, match="cohort"):
        ScreenRequest.from_payload(
            {"cohort": MAX_COHORT_APPROX + 1, "prevalence": 0.05, "backend": "sparse"}
        )
    with pytest.raises(BadRequest, match=r"cohort must be in \[1, 24\]"):
        CalculatorRequest.from_payload({"cohort": 30})
    assert CalculatorRequest.from_payload({"cohort": 30, "backend": "particle"})


def test_sparse_screen_request_executes_without_engine():
    from repro.serve.protocol import ScreenRequest

    payload = ScreenRequest.from_payload(
        {"cohort": 40, "prevalence": 0.05, "seed": 3, "backend": "sparse"}
    ).execute(None)
    assert payload["kind"] == "screen"
    assert payload["request"]["backend"] == "sparse"
    assert payload["summary"]["n_items"] == 40
    assert len(payload["classification"]["statuses"]) == 40


def test_serve_default_backend_injection():
    from repro.serve.app import ServeConfig, ReproServer

    with pytest.raises(ValueError, match="default_backend"):
        ServeConfig(default_backend="exact")

    server = ReproServer(ServeConfig(engine_mode="serial", default_backend="sparse"))
    try:
        body = {"cohort": 6, "prevalence": 0.05}
        assert server._with_default_backend(body)["backend"] == "sparse"
        assert "backend" not in body  # original payload untouched
        explicit = {"cohort": 6, "backend": "dense"}
        assert server._with_default_backend(explicit) is explicit
    finally:
        import asyncio

        asyncio.run(server.close())


def test_config_validates_backend_options():
    with pytest.raises(ValueError, match="backend"):
        SBGTConfig(backend="lattice")
    with pytest.raises(ValueError):
        SBGTConfig(sparse_floor=1.5)
    with pytest.raises(ValueError):
        SBGTConfig(num_particles=1)
    with pytest.raises(ValueError):
        SBGTConfig(ess_threshold=1.5)
    assert SBGTConfig(backend="particle", num_particles=64).num_particles == 64


def test_checkpoint_restore_is_dense_only(tmp_path, ctx):
    config = SBGTConfig(backend="sparse")
    with pytest.raises(ValueError, match="dense backend"):
        SBGTSession.load(ctx, tmp_path / "nope.npz", PRIOR, MODEL, config)


def test_no_stray_warnings_from_protocol_path():
    """Speaking the new surface emits no deprecation warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        post = _build("sparse", None)
        post.update(0b000111, _ll(True, 0b000111))
        cands = np.array([0b000011, 0b000101], dtype=np.uint64)
        select_halving_pool(post, cands)
        post.prune(1e-9)

"""The dense lattice on its driver plane against the engine plane and ``lattice.ops``.

An ``SBGTSession(None, …)`` holds its dense lattice in one driver-resident
block (:class:`~repro.sbgt.distributed_lattice.DistributedLattice` on a
:class:`~repro.sbgt.distributed_lattice.DriverPlane`).  It must answer
what an engine session answers — marginals, the three selection
statistics and the log-predictive of every outcome — and what the
``lattice.ops`` kernels give on a plain :class:`StateSpace`, also after
``settle()`` and a prune.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bayes.dilution import BinaryErrorModel, DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.lattice import ops as lops
from repro.lattice.states import StateSpace
from repro.sbgt.config import SBGTConfig
from repro.sbgt.distributed_lattice import DistributedLattice, DriverPlane
from repro.sbgt.session import SBGTSession
from repro.util.bits import intersect_count

ATOL = 1e-12
MODELS = (BinaryErrorModel(0.95, 0.98), DilutionErrorModel(0.97, 0.99, 0.4))


def _restricted(space: StateSpace, masks: np.ndarray) -> StateSpace:
    """*space* on the states *masks* only, renormalised (a prune's survivors)."""
    keep = np.isin(space.masks, masks)
    return StateSpace(space.n_items, space.masks[keep], lops.normalize_log_probs(space.log_probs[keep]))


def _original_masks(session) -> np.ndarray:
    """The session's surviving states, in original cohort indices."""
    compact = session.lattice.collect().masks
    return np.array(
        [session._index.to_original_mask(int(m)) | session._index.settled_positive_mask()
         for m in compact],
        dtype=np.uint64,
    )


def _reference_stats(space: StateSpace, pools, chosen):
    """Marginals and selection statistics of *space* by the ``lattice.ops`` sweeps."""
    max_size = max(bin(p).count("1") for p in pools)
    hists = np.zeros((len(pools), max_size + 1))
    for row, pool in enumerate(pools):
        dist = lops.pool_count_distribution(space, pool)
        hists[row, : dist.size] = dist
    p = space.probs()
    cell = np.zeros(space.size, dtype=np.int64)
    for j, pool in enumerate(chosen):
        cell |= (intersect_count(space.masks, pool) > 0).astype(np.int64) << j
    n_cells = 1 << (len(chosen) + 1)
    cells = np.array([
        np.bincount(cell | ((intersect_count(space.masks, pool) > 0).astype(np.int64)
                            << len(chosen)), weights=p, minlength=n_cells)
        for pool in pools
    ])
    return {
        "marginals": lops.marginals(space),
        "down_set_masses": np.array([lops.down_set_mass(space, pool) for pool in pools]),
        "pool_count_hists": hists,
        "refined_cell_masses": cells,
    }


def _session_stats(session, pools, chosen):
    table = np.array(pools, dtype=np.uint64)
    return {
        "marginals": session.marginals(),
        "down_set_masses": session.down_set_masses(table),
        "pool_count_hists": session.pool_count_hists(table),
        "refined_cell_masses": session.refined_cell_masses(
            chosen, table, 1 << (len(chosen) + 1)
        ),
    }


def _assert_all_agree(sessions, reference, pools, chosen):
    expected = _reference_stats(reference, pools, chosen)
    for name, session in sessions.items():
        got = _session_stats(session, pools, chosen)
        for stat, value in expected.items():
            np.testing.assert_allclose(got[stat], value, rtol=0, atol=ATOL, err_msg=f"{name} {stat}")


@st.composite
def screens(draw):
    n = draw(st.integers(2, 10))
    risks = draw(st.lists(st.floats(0.02, 0.4), min_size=n, max_size=n))
    full = (1 << n) - 1
    tests = draw(st.lists(st.tuples(st.integers(1, full), st.booleans()), min_size=1, max_size=4))
    settled = draw(st.integers(0, n - 1))
    return {
        "risks": risks,
        "tests": tests,
        "settled": (settled, draw(st.booleans())),
        "model": draw(st.sampled_from(MODELS)),
        "pools": draw(st.lists(st.integers(1, full), min_size=1, max_size=4)),
        "chosen": draw(st.lists(st.integers(1, full), min_size=0, max_size=2)),
        "epsilon": draw(st.sampled_from([1e-6, 1e-3, 0.05])),
    }


@settings(max_examples=40, deadline=None)
@given(screen=screens())
def test_context_free_session_matches_engine_sessions_and_ops(serial_ctx, screen):
    prior, model = PriorSpec(np.array(screen["risks"])), screen["model"]
    config = SBGTConfig(prune_epsilon=screen["epsilon"])
    sessions = {
        "driver plane": SBGTSession(None, prior, model, config),
        "engine plane, 1 block": SBGTSession(serial_ctx, prior, model, config.with_(num_blocks=1)),
        "engine plane, 4 blocks": SBGTSession(serial_ctx, prior, model, config.with_(num_blocks=4)),
    }
    assert isinstance(sessions["driver plane"].lattice.rdd, DriverPlane)
    reference = prior.build_dense()
    try:
        _assert_all_agree(sessions, reference, screen["pools"], screen["chosen"])
        for pool, outcome in screen["tests"]:
            table = model.log_likelihood_by_count(outcome, bin(pool).count("1"))
            log_probs, log_mass = lops.conditioned_log_probs(reference, pool, table)
            if log_mass < -30.0:  # too unlikely to compare predictives at 1e-12
                continue
            reference = StateSpace(reference.n_items, reference.masks, log_probs - log_mass)
            for name, session in sessions.items():
                record = session.update(pool, outcome)
                assert record.log_predictive == pytest.approx(log_mass, abs=ATOL, rel=0), name
        _assert_all_agree(sessions, reference, screen["pools"], screen["chosen"])

        # settle(): the sessions project the bit out, the reference
        # conditions on it; pools keep speaking original indices.
        who, positive = screen["settled"]
        for session in sessions.values():
            session.settle(who, positive)
        reference = lops.condition_on_classification(
            reference, (1 << who) if positive else 0, 0 if positive else (1 << who)
        )
        pools = [p & ~(1 << who) for p in screen["pools"] if p & ~(1 << who)]
        chosen = [p & ~(1 << who) for p in screen["chosen"] if p & ~(1 << who)]
        if pools:
            _assert_all_agree(sessions, reference, pools, chosen)

        # prune: each plane keeps its own survivors (the histogram's bin
        # edges follow the stored log-probs, whose offsets differ); every
        # one must be the reference restricted to what it kept.
        for name, session in sessions.items():
            stats = session.prune()
            survivors = _original_masks(session)
            assert stats.kept_states == survivors.size
            kept_mass = reference.probs()[np.isin(reference.masks, survivors)].sum()
            assert kept_mass >= 1.0 - screen["epsilon"] - ATOL, name
            if pools:
                _assert_all_agree({name: session}, _restricted(reference, survivors), pools, chosen)
    finally:
        for session in sessions.values():
            session.close()


@pytest.mark.parametrize("max_positives", [1, 2, 3])
def test_restricted_lattice_on_the_driver_matches_the_engine(serial_ctx, max_positives):
    prior = PriorSpec(np.array([0.05, 0.2, 0.1, 0.3, 0.15, 0.08, 0.12]))
    model = BinaryErrorModel(0.95, 0.98)
    driver = DistributedLattice.from_restricted_prior(None, prior, max_positives)
    engine = DistributedLattice.from_restricted_prior(serial_ctx, prior, max_positives, 1)
    try:
        assert isinstance(driver.rdd, DriverPlane) and engine.num_blocks == 1
        assert driver.log_discarded_prior == pytest.approx(engine.log_discarded_prior, abs=ATOL)
        pools = np.array([0b11, 0b1100, 0b1110001], dtype=np.uint64)
        for pool, outcome in ((0b111, True), (0b1010000, False)):
            table = model.log_likelihood_by_count(outcome, bin(pool).count("1"))
            assert driver.update(pool, table) == pytest.approx(engine.update(pool, table), abs=ATOL)
        for stat in (lambda b: b.marginals(), lambda b: b.down_set_masses(pools),
                     lambda b: b.pool_count_hists(pools), lambda b: b.entropy()):
            np.testing.assert_allclose(stat(driver), stat(engine), rtol=0, atol=ATOL)
        assert np.array_equal(driver.collect().masks, engine.collect().masks)
    finally:
        engine.unpersist()


@pytest.mark.parametrize("after_settle", [False, True], ids=["fresh", "after-settle"])
@pytest.mark.parametrize("kind", ["dense-engine", "dense-context-free", "sparse", "particle"])
def test_a_pool_naming_someone_outside_the_cohort_is_refused(ctx, kind, after_settle):
    """Bit 6 of a 4-person cohort is no one: refused, not read as a negative."""
    backend = kind.split("-")[0]
    session = SBGTSession(
        ctx if kind == "dense-engine" else None,
        PriorSpec.uniform(4, 0.1),
        BinaryErrorModel(0.95, 0.98),
        SBGTConfig(backend=backend, num_particles=256),
    )
    try:
        if after_settle:
            session.settle(0, False)
        before = session.marginals()
        for pool in (1 << 6, 0b1000110):  # alone, and beside live members
            with pytest.raises(ValueError, match="bit 6 outside cohort"):
                session.update(pool, True)
        assert session.num_tests == 0
        np.testing.assert_array_equal(session.marginals(), before)
    finally:
        session.close()

"""Property-based agreement: vectorised posterior vs the dict oracle.

Random risk vectors, random pooled-test sequences, three response
models — the two independent implementations of the same math must
agree on marginals after every update.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from repro.baseline.pydict import PyDictPosterior
from repro.bayes.dilution import BinaryErrorModel, DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.sbgt.session import SBGTSession
from repro.util.bits import intersect_count

common = settings(
    max_examples=25, suppress_health_check=[HealthCheck.too_slow]
)

risk_lists = st.lists(st.floats(0.02, 0.6), min_size=2, max_size=6)


@st.composite
def screen_sequences(draw):
    """A cohort plus 1–5 random (pool, outcome) observations."""
    risks = draw(risk_lists)
    n = len(risks)
    n_tests = draw(st.integers(1, 5))
    seq = []
    for _ in range(n_tests):
        pool = draw(st.integers(1, (1 << n) - 1))
        outcome = draw(st.booleans())
        seq.append((pool, outcome))
    return risks, seq


@common
@given(data=screen_sequences())
def test_binary_model_agreement(data):
    risks, seq = data
    model = BinaryErrorModel(0.93, 0.97)
    fast = SBGTSession(None, PriorSpec(np.array(risks)), model)
    oracle = PyDictPosterior(risks, model)
    for pool, outcome in seq:
        fast.update(pool, outcome)
        oracle.update(pool, outcome)
    assert np.allclose(fast.marginals(), oracle.marginals(), atol=1e-8)


@common
@given(data=screen_sequences(), delta=st.floats(0.0, 1.5))
def test_dilution_model_agreement(data, delta):
    risks, seq = data
    model = DilutionErrorModel(0.96, 0.99, delta)
    fast = SBGTSession(None, PriorSpec(np.array(risks)), model)
    oracle = PyDictPosterior(risks, model)
    for pool, outcome in seq:
        fast.update(pool, outcome)
        oracle.update(pool, outcome)
    assert np.allclose(fast.marginals(), oracle.marginals(), atol=1e-8)


@common
@given(data=screen_sequences())
def test_posterior_always_normalized(data):
    risks, seq = data
    model = BinaryErrorModel(0.9, 0.95)
    post = SBGTSession(None, PriorSpec(np.array(risks)), model)
    for pool, outcome in seq:
        post.update(pool, outcome)
        assert post.lattice.collect().is_normalized(atol=1e-8)
        m = post.marginals()
        assert np.all(m >= -1e-12) and np.all(m <= 1 + 1e-12)


@common
@given(data=screen_sequences())
def test_entropy_never_negative(data):
    risks, seq = data
    model = BinaryErrorModel(0.9, 0.95)
    post = SBGTSession(None, PriorSpec(np.array(risks)), model)
    for pool, outcome in seq:
        post.update(pool, outcome)
        assert post.entropy() >= -1e-12


@common
@given(data=screen_sequences())
def test_evidence_additivity(data):
    """Total log evidence equals the log joint of the outcome sequence."""
    risks, seq = data
    model = BinaryErrorModel(0.9, 0.95)
    post = SBGTSession(None, PriorSpec(np.array(risks)), model)
    for pool, outcome in seq:
        post.update(pool, outcome)
    # Recompute the joint directly on the dict oracle: product over the
    # sequence of predictive probabilities.
    oracle = PyDictPosterior(risks, model)
    log_joint = 0.0
    import math

    for pool, outcome in seq:
        pool_size = bin(pool).count("1")
        lik = [math.exp(v) for v in model.log_likelihood_by_count(outcome, pool_size)]
        pred = 0.0
        for state, p in oracle.lattice.probs.items():
            k = bin(state & pool).count("1")
            pred += p * lik[k]
        log_joint += math.log(pred)
        oracle.update(pool, outcome)
    assert post.log.log_evidence == pytest.approx(log_joint, abs=1e-8)


@common
@given(data=screen_sequences(), delta=st.floats(0.0, 1.5))
def test_log_predictive_is_the_ratio_of_masses(data, delta):
    """``update`` reads the predictive off the one mass it computes; the
    two-``logsumexp`` formula it replaced is the reference."""
    risks, seq = data
    model = DilutionErrorModel(0.96, 0.99, delta)
    post = SBGTSession(None, PriorSpec(np.array(risks)), model)
    total = 0.0
    for pool, outcome in seq:
        space = post.lattice.collect()
        lp = space.log_probs
        ll = model.log_likelihood_by_count(outcome, bin(pool).count("1"))
        counts = intersect_count(space.masks, pool)
        expected = float(scipy_logsumexp(lp + ll[counts]) - scipy_logsumexp(lp))
        record = post.update(pool, outcome)
        assert record.log_predictive == pytest.approx(expected, abs=1e-12, rel=0)
        total += record.log_predictive
    assert post.log.log_evidence == pytest.approx(total, abs=1e-12, rel=0)

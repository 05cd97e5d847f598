"""Property-based end-to-end screens: invariants over random cohorts."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bayes.dilution import BinaryErrorModel, PerfectTest
from repro.bayes.priors import PriorSpec
from repro.halving.policy import (
    BHAPolicy,
    DorfmanPolicy,
    IndividualTestingPolicy,
    LookaheadPolicy,
)
from repro.sbgt.config import SBGTConfig
from repro.simulate.population import Cohort
from repro.workflows.classify import run_screen

common = settings(
    max_examples=20, suppress_health_check=[HealthCheck.too_slow]
)

POLICY_FACTORIES = [
    BHAPolicy,
    lambda: LookaheadPolicy(2),
    IndividualTestingPolicy,
    lambda: DorfmanPolicy(3),
]


@st.composite
def screen_cases(draw):
    n = draw(st.integers(4, 9))
    # Risks strictly inside the (0.01, 0.99) undetermined band: a risk at
    # or below the clearance threshold is legitimately classified from
    # the prior without any test (covered by test_counters_consistent).
    risks = draw(
        st.lists(st.floats(0.02, 0.4), min_size=n, max_size=n)
    )
    truth = draw(st.integers(0, (1 << n) - 1))
    policy_idx = draw(st.integers(0, len(POLICY_FACTORIES) - 1))
    return np.array(risks), truth, policy_idx


@common
@given(case=screen_cases())
def test_perfect_test_always_exact(case):
    """With a noiseless assay every screen must classify perfectly."""
    risks, truth, policy_idx = case
    prior = PriorSpec(risks)
    cohort = Cohort(prior, truth_mask=truth)
    result = run_screen(
        prior, PerfectTest(), POLICY_FACTORIES[policy_idx](), rng=0,
        cohort=cohort, config=SBGTConfig(max_stages=80),
    )
    assert result.report.all_classified
    assert result.accuracy == 1.0
    assert result.report.positives() == sorted(
        i for i in range(prior.n_items) if (truth >> i) & 1
    )


@common
@given(case=screen_cases())
def test_counters_consistent(case):
    risks, truth, policy_idx = case
    prior = PriorSpec(risks)
    cohort = Cohort(prior, truth_mask=truth)
    result = run_screen(
        prior, PerfectTest(), POLICY_FACTORIES[policy_idx](), rng=0,
        cohort=cohort, config=SBGTConfig(max_stages=80),
    )
    assert result.efficiency.num_tests == result.posterior.num_tests
    # A prior already below the clearance threshold legitimately settles
    # the whole cohort with zero tests; otherwise at least one stage ran.
    if result.efficiency.num_tests == 0:
        assert result.stages_used == 0
        assert result.report.all_classified
    else:
        assert result.stages_used >= 1
    assert result.efficiency.num_samples_used >= result.efficiency.num_tests


@common
@given(case=screen_cases(), seed=st.integers(0, 100))
def test_noisy_screens_keep_valid_marginals(case, seed):
    risks, truth, policy_idx = case
    prior = PriorSpec(risks)
    cohort = Cohort(prior, truth_mask=truth)
    result = run_screen(
        prior, BinaryErrorModel(0.93, 0.97), POLICY_FACTORIES[policy_idx](),
        rng=seed, cohort=cohort, config=SBGTConfig(max_stages=15),
    )
    m = result.report.marginals
    assert np.all(m >= -1e-12) and np.all(m <= 1 + 1e-12)
    assert np.isfinite(result.posterior.log.log_evidence)


@common
@given(case=screen_cases())
def test_screen_deterministic_replay(case):
    risks, truth, policy_idx = case
    prior = PriorSpec(risks)
    cohort = Cohort(prior, truth_mask=truth)

    def once():
        return run_screen(
            prior, BinaryErrorModel(0.95, 0.98), POLICY_FACTORIES[policy_idx](),
            rng=42, cohort=cohort, config=SBGTConfig(max_stages=25),
        )

    a, b = once(), once()
    assert a.efficiency.num_tests == b.efficiency.num_tests
    assert a.report.statuses == b.report.statuses

"""R5 — group-testing efficiency vs prevalence (Biostatistics'22 headline).

Each bench runs a Monte-Carlo batch of complete screens at one prevalence
and policy; the statistical results (tests/individual, stages, accuracy)
ride along in ``extra_info`` and the timing answers "how long does a full
SBGT-style screen take end-to-end".  The expected *shape*: Bayesian
halving saves most tests at low prevalence, Dorfman sits between, and the
advantage collapses toward individual testing as prevalence grows.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SIZES
from repro.bayes.dilution import BinaryErrorModel
from repro.bayes.priors import PriorSpec
from repro.halving.policy import (
    ArrayTestingPolicy,
    BHAPolicy,
    DorfmanPolicy,
    IndividualTestingPolicy,
)
from repro.sbgt.config import SBGTConfig
from repro.workflows.classify import run_screen

# Mild, dilution-free assay: R5 isolates *pooling* efficiency (the
# Biostatistics'22 savings story); dilution stress is R7's subject.
MODEL = BinaryErrorModel(sensitivity=0.99, specificity=0.995)
COHORT = SIZES["r5_cohort"]
REPS = SIZES["r5_reps"]

POLICIES = {
    "bha": BHAPolicy,
    "dorfman": lambda: DorfmanPolicy(max(2, COHORT // 3)),
    "array": lambda: ArrayTestingPolicy(3, max(2, COHORT // 3)),
    "individual": IndividualTestingPolicy,
}


def _mc_batch(prevalence: float, policy_factory) -> dict:
    prior = PriorSpec.uniform(COHORT, prevalence)
    config = SBGTConfig(max_stages=60, negative_threshold=min(0.01, prevalence / 10))
    tpis, stages, accs = [], [], []
    rng = np.random.default_rng(12345)
    for _ in range(REPS):
        res = run_screen(prior, MODEL, policy_factory(), rng=rng, config=config)
        tpis.append(res.tests_per_individual)
        stages.append(res.stages_used)
        accs.append(res.accuracy)
    return {
        "tests_per_individual": float(np.mean(tpis)),
        "stages": float(np.mean(stages)),
        "accuracy": float(np.mean(accs)),
    }


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("prevalence", SIZES["r5_prevalences"])
def test_r5_efficiency(benchmark, prevalence, policy):
    result = benchmark.pedantic(
        _mc_batch, args=(prevalence, POLICIES[policy]), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    benchmark.extra_info["prevalence"] = prevalence
    benchmark.extra_info["policy"] = policy

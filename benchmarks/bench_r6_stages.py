"""R6 — the stages/tests trade-off of look-ahead rules.

Sequential halving minimises tests but serialises lab round-trips;
k-pool look-ahead batches cut stages at a small test premium.  Each bench
replays the same cohorts under a different rule and reports mean stages
and mean tests in ``extra_info``.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SIZES
from repro.bayes.dilution import DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.halving.hybrid import HybridPolicy
from repro.halving.policy import BHAPolicy, LookaheadPolicy
from repro.sbgt.config import SBGTConfig
from repro.simulate.population import make_cohort
from repro.workflows.classify import run_screen

MODEL = DilutionErrorModel(0.98, 0.995, 0.3)
COHORT = SIZES["r6_cohort"]
REPS = SIZES["r6_reps"]

RULES = {
    "bha": BHAPolicy,
    "lookahead-2": lambda: LookaheadPolicy(2),
    "lookahead-3": lambda: LookaheadPolicy(3),
    "hybrid": lambda: HybridPolicy(),
}


def _mc_batch(rule_factory) -> dict:
    prior = PriorSpec.uniform(COHORT, 0.05)
    stages, tests = [], []
    rng = np.random.default_rng(777)
    for rep in range(REPS):
        cohort = make_cohort(prior, rng=1000 + rep)  # shared across rules
        res = run_screen(
            prior, MODEL, rule_factory(), rng=rng, cohort=cohort,
            config=SBGTConfig(max_stages=60),
        )
        stages.append(res.stages_used)
        tests.append(res.efficiency.num_tests)
    return {
        "stages_mean": float(np.mean(stages)),
        "stages_std": float(np.std(stages)),
        "tests_mean": float(np.mean(tests)),
    }


@pytest.mark.parametrize("rule", sorted(RULES))
def test_r6_stage_tradeoff(benchmark, rule):
    result = benchmark.pedantic(_mc_batch, args=(RULES[rule],), rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    benchmark.extra_info["rule"] = rule

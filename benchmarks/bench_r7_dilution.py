"""R7 — robustness under dilution effects.

Sweeps the dilution exponent from none to severe, holding cohorts fixed,
and reports accuracy / sensitivity / tests consumed.  Expected shape: the
Bayesian model keeps accuracy high by *spending more tests* as dilution
strengthens (it knows pooled negatives are less trustworthy), rather than
silently missing positives the way a fixed design does.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SIZES
from repro.bayes.dilution import DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.halving.policy import BHAPolicy
from repro.sbgt.config import SBGTConfig
from repro.simulate.population import make_cohort
from repro.workflows.classify import run_screen

REPS = SIZES["r7_reps"]


def _mc_batch(dilution: float) -> dict:
    prior = PriorSpec.uniform(10, 0.08)
    model = DilutionErrorModel(0.98, 0.995, dilution)
    accs, sens, tests = [], [], []
    rng = np.random.default_rng(4242)
    for rep in range(REPS):
        cohort = make_cohort(prior, rng=2000 + rep)  # same cohorts per sweep point
        res = run_screen(
            prior, model, BHAPolicy(), rng=rng, cohort=cohort,
            config=SBGTConfig(max_stages=80),
        )
        accs.append(res.accuracy)
        sens.append(res.confusion.sensitivity)
        tests.append(res.efficiency.num_tests)
    return {
        "accuracy": float(np.mean(accs)),
        "sensitivity": float(np.mean(sens)),
        "tests_mean": float(np.mean(tests)),
    }


@pytest.mark.parametrize("dilution", SIZES["r7_dilutions"])
def test_r7_dilution_sweep(benchmark, dilution):
    result = benchmark.pedantic(_mc_batch, args=(dilution,), rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    benchmark.extra_info["dilution_exponent"] = dilution

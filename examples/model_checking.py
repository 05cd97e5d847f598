#!/usr/bin/env python3
"""Model checking: is the inference model matched to the assay?

Two diagnostics a surveillance program should run continuously, both
needing nothing but screening data:

1. **Bayes-factor model comparison** — replay the observed test trail
   under candidate response models; the marginal likelihood picks out
   the dilution law actually generating the outcomes.
2. **Calibration** — bin final posterior marginals against (simulated)
   truth; a mismatched model shows up as systematic over/under-confidence
   long before raw accuracy collapses.

Here the lab's assay secretly dilutes (δ = 1.0) while one of the two
analysis pipelines assumes it doesn't.

    python examples/model_checking.py
"""

import numpy as np

from repro import BinaryErrorModel, DilutionErrorModel, Posterior, PriorSpec
from repro.bayes.model_selection import format_comparison
from repro.metrics.calibration import calibration_report
from repro.simulate.population import make_cohort
from repro.simulate.testing import TestLab

TRUE_MODEL = DilutionErrorModel(sensitivity=0.98, specificity=0.99, dilution_exponent=1.0)
CANDIDATES = {
    "no-dilution": BinaryErrorModel(0.98, 0.99),
    "mild-dilution (δ=0.3)": DilutionErrorModel(0.98, 0.99, 0.3),
    "true law (δ=1.0)": DilutionErrorModel(0.98, 0.99, 1.0),
}
POOLS = [0b00001111, 0b11110000, 0b00111100, 0b01010101, 0b11111111, 0b00000110]


def main() -> None:
    prior = PriorSpec.uniform(8, 0.2)

    # ---- 1. model comparison on pooled trails ------------------------
    # Ten cohorts' worth of pooled outcomes; evidence accumulates per
    # cohort (each gets a fresh prior).
    from repro.bayes.model_selection import ModelEvidence, replay_log_evidence

    totals = {name: 0.0 for name in CANDIDATES}
    for seed in range(10):
        cohort = make_cohort(prior, rng=seed)
        lab = TestLab(TRUE_MODEL, cohort.truth_mask, rng=seed)
        piece = [(pool, lab.run(pool)) for pool in POOLS]
        for name, model in CANDIDATES.items():
            totals[name] += replay_log_evidence(prior, model, piece)

    scored = sorted(
        (ModelEvidence(n, ev) for n, ev in totals.items()),
        key=lambda m: -m.log_evidence,
    )
    print(format_comparison(scored))
    print(f"\n→ the data prefer '{scored[0].name}' "
          f"(log BF {scored[0].log_evidence - scored[1].log_evidence:+.1f} over runner-up)\n")

    # ---- 2. calibration of the two pipelines -------------------------
    for label, infer_model in (
        ("assuming no dilution", CANDIDATES["no-dilution"]),
        ("using the true law", CANDIDATES["true law (δ=1.0)"]),
    ):
        preds, truths = [], []
        for seed in range(120):
            cohort = make_cohort(prior, rng=1000 + seed)
            lab = TestLab(TRUE_MODEL, cohort.truth_mask, rng=seed)
            post = Posterior.from_prior(prior, infer_model)
            for pool in POOLS[:3]:
                post.update(pool, lab.run(pool))
            preds.extend(post.marginals())
            truths.extend(cohort.is_positive(i) for i in range(8))
        report = calibration_report(np.array(preds), np.array(truths), num_bins=5)
        print(f"pipeline {label}:")
        print(report.to_table())
        print()


if __name__ == "__main__":
    main()

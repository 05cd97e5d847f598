#!/usr/bin/env python3
"""Household screening: correlated priors, a lattice-model exclusive.

Transmission clusters: when one household member is infected, the rest
probably are too.  Product-Bernoulli designs cannot encode that; the
lattice carries an arbitrary state distribution, so here the prior is a
household model (community introduction × within-household attack rate),
and the Bayesian Halving Algorithm discovers household-shaped pools on
its own — then one positive member's test resolves whole households.

Compares the same screen with (a) the true household prior and (b) an
independence prior with matched marginals, on identical ground truths.

    python examples/household_screening.py
"""

import numpy as np

from repro import BHAPolicy, BinaryErrorModel, PriorSpec, SBGTConfig
from repro.bayes.correlated import HouseholdPrior, pairwise_correlation
from repro.metrics.reporting import format_table
from repro.workflows import run_screen_from_space


def run_with_space(space, model, truth_mask, rng, max_stages=60):
    """Screen driven directly from an arbitrary prior state space."""
    result = run_screen_from_space(
        space, model, BHAPolicy(), rng=rng, truth_mask=truth_mask,
        config=SBGTConfig(max_stages=max_stages),
    )
    return result, result.efficiency.num_tests, result.stages_used


def main() -> None:
    households = [4, 3, 4, 3]  # 14 individuals in 4 households
    hp = HouseholdPrior(households, intro_prob=0.10, attack_rate=0.65)
    household_space = hp.build_dense()
    print(f"cohort: {hp.n_items} people in households of {households}")
    print(f"marginal risk      : {hp.marginal_risk():.3f}")
    print(f"within-household ρ : {pairwise_correlation(household_space, 0, 1):.2f}")
    print(f"across-household ρ : {pairwise_correlation(household_space, 0, 5):.2f}\n")

    # Independence prior with the same per-person marginal risk.
    indep_space = PriorSpec.uniform(hp.n_items, hp.marginal_risk()).build_dense()
    model = BinaryErrorModel(sensitivity=0.99, specificity=0.995)

    rows = []
    totals = {"household": [0, 0, 0], "independent": [0, 0, 0]}
    rng = np.random.default_rng(11)
    for trial in range(6):
        truth = hp.draw_truth(rng=100 + trial)  # truth follows the household law
        for label, space in (("household", household_space), ("independent", indep_space)):
            result, tests, stages = run_with_space(space, model, truth, np.random.default_rng(7))
            conf = result.confusion
            totals[label][0] += tests
            totals[label][1] += stages
            totals[label][2] += conf.accuracy
            if trial < 3:
                rows.append(
                    [trial, label, bin(truth).count("1"), tests, stages, f"{conf.accuracy:.0%}"]
                )

    print(format_table(
        ["trial", "prior", "true +", "tests", "stages", "accuracy"],
        rows,
        title="First three trials",
    ))
    print("\n6-trial totals:")
    for label, (tests, stages, acc) in totals.items():
        print(f"  {label:12s}: {tests:3d} tests, {stages:3d} stages, "
              f"mean accuracy {acc / 6:.1%}")
    saved = totals["independent"][0] - totals["household"][0]
    print(f"\nmodelling the household structure saved {saved} tests "
          f"({saved / max(totals['independent'][0], 1):.0%}) on identical cohorts.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The pooling calculator: should this lab pool, and how much is saved?

Reproduces the decision support of the Biostatistics'22 web calculator:
for a grid of prevalence levels, Monte-Carlo the expected tests per
individual, the stage count (turnaround time proxy), their variability,
and accuracy — then print the pool/don't-pool verdict per level.

    python examples/pooling_calculator.py
"""

from repro import BHAPolicy, BinaryErrorModel
from repro.workflows.calculator import format_calculator_table, pooling_calculator
from repro.workflows.payloads import calculator_entry_dict


def main() -> None:
    model = BinaryErrorModel(sensitivity=0.99, specificity=0.995)
    entries = pooling_calculator(
        model,
        BHAPolicy,
        prevalences=[0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.30],
        cohort_size=12,
        replications=15,
        rng=0,
    )
    print(format_calculator_table([calculator_entry_dict(e) for e in entries]))
    print()
    for e in entries:
        if not e.pooling_recommended:
            print(f"pooling stops paying off near {e.prevalence:.0%} prevalence "
                  f"({e.mean_tests_per_individual:.2f} tests/individual).")
            break
    else:
        print("pooling saves tests at every level tested.")


if __name__ == "__main__":
    main()

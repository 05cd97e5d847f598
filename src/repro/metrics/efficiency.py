"""Testing-efficiency metrics: the group-testing savings story.

The Biostatistics'22 headline is tests-per-individual well below one at
low prevalence; the trade-off is more sequential stages.  This module
turns a finished screen into those numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EfficiencyReport", "efficiency_report"]


@dataclass(frozen=True)
class EfficiencyReport:
    """Consumption summary of one screen."""

    n_items: int
    num_tests: int
    num_stages: int
    num_samples_used: int

    @property
    def tests_per_individual(self) -> float:
        return self.num_tests / self.n_items if self.n_items else 0.0

    @property
    def savings_vs_individual(self) -> float:
        """Fraction of tests saved relative to one-test-per-person.

        Negative when the screen spent *more* tests than individual
        testing (can happen at high prevalence — the regime where the
        calculator recommends not pooling).
        """
        return 1.0 - self.tests_per_individual


def efficiency_report(
    n_items: int, num_tests: int, num_stages: int, num_samples_used: int
) -> EfficiencyReport:
    """Validate and assemble an :class:`EfficiencyReport`."""
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if min(num_tests, num_stages, num_samples_used) < 0:
        raise ValueError("counters must be non-negative")
    return EfficiencyReport(n_items, num_tests, num_stages, num_samples_used)

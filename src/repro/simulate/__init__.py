"""Synthetic disease-surveillance workloads.

Stands in for the COVID-19 cohorts and lab assays of the paper's
evaluation: ground-truth infection draws under heterogeneous risk, a
virtual lab applying the dilution response models, and epidemic
prevalence trajectories for longitudinal surveillance scenarios.
"""

from repro.simulate.population import Cohort, draw_truth, draw_truth_from_space, make_cohort
from repro.simulate.testing import TestLab, LabStats
from repro.simulate.epidemic import sir_prevalence, surveillance_priors
from repro.simulate.scenario import Scenario, SCENARIOS, get_scenario

__all__ = [
    "Cohort",
    "draw_truth",
    "draw_truth_from_space",
    "make_cohort",
    "TestLab",
    "LabStats",
    "sir_prevalence",
    "surveillance_priors",
    "Scenario",
    "SCENARIOS",
    "get_scenario",
]

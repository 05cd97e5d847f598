"""End-to-end workflows: screens, surveillance campaigns, the calculator."""

from repro.workflows.classify import (
    ScreenResult,
    run_screen,
    run_screen_from_space,
)
from repro.workflows.surveillance import SurveillanceResult, run_surveillance
from repro.workflows.calculator import CalculatorEntry, pooling_calculator
from repro.workflows.population import (
    PopulationResult,
    screen_population,
    split_into_cohorts,
)

__all__ = [
    "ScreenResult",
    "run_screen",
    "run_screen_from_space",
    "SurveillanceResult",
    "run_surveillance",
    "CalculatorEntry",
    "pooling_calculator",
    "PopulationResult",
    "screen_population",
    "split_into_cohorts",
]

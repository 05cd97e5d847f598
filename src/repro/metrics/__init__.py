"""Evaluation metrics: classification quality and testing efficiency."""

from repro.metrics.classification import ConfusionCounts, evaluate_classification
from repro.metrics.efficiency import EfficiencyReport, efficiency_report
from repro.metrics.reporting import format_table
from repro.metrics.bounds import (
    min_expected_tests,
    prior_entropy_bits,
)
from repro.metrics.calibration import (
    CalibrationReport,
    calibration_report,
)

__all__ = [
    "ConfusionCounts",
    "evaluate_classification",
    "EfficiencyReport",
    "efficiency_report",
    "format_table",
    "prior_entropy_bits",
    "min_expected_tests",
    "CalibrationReport",
    "calibration_report",
]

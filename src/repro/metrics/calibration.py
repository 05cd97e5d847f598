"""Posterior calibration: do the marginals mean what they say?

A Bayesian screen reports each individual's infection probability.  If
those numbers are *calibrated*, then among all individuals ever assigned
~20 % they should be infected ~20 % of the time.  This module bins
(final marginal, truth) pairs across many simulated screens into a
reliability table — the standard posterior-quality diagnostic, and the
check that would catch a response-model mismatch (e.g. assuming no
dilution when the assay dilutes) long before accuracy collapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.metrics.reporting import format_table

__all__ = ["CalibrationBin", "CalibrationReport", "calibration_report"]


@dataclass(frozen=True)
class CalibrationBin:
    """One probability band of the reliability table."""

    lo: float
    hi: float
    count: int
    mean_predicted: float
    empirical_rate: float

    @property
    def gap(self) -> float:
        """Empirical minus predicted — signed miscalibration."""
        return self.empirical_rate - self.mean_predicted


@dataclass
class CalibrationReport:
    """Reliability table plus the summary scores."""

    bins: List[CalibrationBin]
    brier_score: float
    expected_calibration_error: float

    def to_table(self) -> str:
        rows = [
            [
                f"[{b.lo:.2f}, {b.hi:.2f})",
                b.count,
                b.mean_predicted,
                b.empirical_rate,
                f"{b.gap:+.3f}",
            ]
            for b in self.bins
            if b.count
        ]
        return format_table(
            ["band", "n", "predicted", "empirical", "gap"],
            rows,
            title=(
                f"Calibration (Brier {self.brier_score:.4f}, "
                f"ECE {self.expected_calibration_error:.4f})"
            ),
        )


def calibration_report(
    predictions: Sequence[float],
    outcomes: Sequence[bool],
    num_bins: int = 10,
) -> CalibrationReport:
    """Build a reliability table from (marginal, truly-infected) pairs.

    ``expected_calibration_error`` is the count-weighted mean |gap|;
    ``brier_score`` is the mean squared error of the probabilities.
    """
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(outcomes, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError("predictions and outcomes must be equal-length 1-D")
    if p.size == 0:
        raise ValueError("no predictions supplied")
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("predictions must be probabilities")
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")

    edges = np.linspace(0.0, 1.0, num_bins + 1)
    idx = np.clip(np.searchsorted(edges, p, side="right") - 1, 0, num_bins - 1)
    bins: List[CalibrationBin] = []
    ece = 0.0
    for b in range(num_bins):
        mask = idx == b
        count = int(mask.sum())
        if count:
            mean_pred = float(p[mask].mean())
            rate = float(y[mask].mean())
            ece += count * abs(rate - mean_pred)
        else:
            mean_pred = float((edges[b] + edges[b + 1]) / 2)
            rate = float("nan")
        bins.append(
            CalibrationBin(
                lo=float(edges[b]),
                hi=float(edges[b + 1]),
                count=count,
                mean_predicted=mean_pred,
                empirical_rate=rate,
            )
        )
    return CalibrationReport(
        bins=bins,
        brier_score=float(np.mean((p - y) ** 2)),
        expected_calibration_error=float(ece / p.size),
    )

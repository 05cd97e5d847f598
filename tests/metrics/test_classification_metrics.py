"""Confusion counts against ground truth."""

import numpy as np
import pytest

from repro.bayes.posterior import Classification, ClassificationReport
from repro.metrics.classification import ConfusionCounts, evaluate_classification

P, N, U = Classification.POSITIVE, Classification.NEGATIVE, Classification.UNDETERMINED


def report_of(statuses):
    return ClassificationReport(marginals=np.zeros(len(statuses)), statuses=tuple(statuses))


class TestEvaluateClassification:
    def test_all_correct(self):
        out = evaluate_classification(report_of([P, N, N]), truth_mask=0b001)
        assert (out.true_positive, out.true_negative) == (1, 2)
        assert out.false_positive == out.false_negative == out.undetermined == 0

    def test_false_positive(self):
        out = evaluate_classification(report_of([P]), truth_mask=0)
        assert out.false_positive == 1

    def test_false_negative(self):
        out = evaluate_classification(report_of([N]), truth_mask=0b1)
        assert out.false_negative == 1

    def test_undetermined_counted(self):
        out = evaluate_classification(report_of([U, U]), truth_mask=0b01)
        assert out.undetermined == 2


class TestConfusionCounts:
    def test_accuracy_counts_undetermined_as_error(self):
        counts = ConfusionCounts(2, 0, 6, 0, 2)
        assert counts.accuracy == pytest.approx(8 / 10)

    def test_sensitivity_specificity(self):
        counts = ConfusionCounts(8, 1, 89, 2, 0)
        assert counts.sensitivity == pytest.approx(0.8)
        assert counts.specificity == pytest.approx(89 / 90)

    def test_degenerate_denominators(self):
        counts = ConfusionCounts(0, 0, 0, 0, 0)
        assert counts.sensitivity == 1.0
        assert counts.specificity == 1.0
        assert counts.accuracy == 1.0

    def test_n_items(self):
        counts = ConfusionCounts(1, 2, 3, 4, 5)
        assert counts.n_items == 15

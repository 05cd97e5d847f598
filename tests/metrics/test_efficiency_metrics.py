"""Efficiency reports."""

import pytest

from repro.metrics.efficiency import efficiency_report


class TestEfficiencyReport:
    def test_tests_per_individual(self):
        rep = efficiency_report(n_items=10, num_tests=4, num_stages=3, num_samples_used=20)
        assert rep.tests_per_individual == pytest.approx(0.4)

    def test_savings(self):
        rep = efficiency_report(10, 4, 3, 20)
        assert rep.savings_vs_individual == pytest.approx(0.6)

    def test_negative_savings_possible(self):
        rep = efficiency_report(4, 10, 5, 12)
        assert rep.savings_vs_individual < 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            efficiency_report(0, 1, 1, 1)
        with pytest.raises(ValueError):
            efficiency_report(5, -1, 1, 1)

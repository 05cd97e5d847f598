"""The pooling calculator."""

import pytest

from repro.bayes.dilution import PerfectTest
from repro.halving.policy import BHAPolicy
from repro.workflows.calculator import (
    format_calculator_table,
    pooling_calculator,
)
from repro.workflows.payloads import calculator_entry_dict


@pytest.fixture(scope="module")
def entries():
    return pooling_calculator(
        PerfectTest(),
        BHAPolicy,
        prevalences=[0.01, 0.30],
        cohort_size=10,
        replications=6,
        rng=0,
    )


class TestPoolingCalculator:
    def test_one_entry_per_prevalence(self, entries):
        assert [e.prevalence for e in entries] == [0.01, 0.30]

    def test_cost_increases_with_prevalence(self, entries):
        assert entries[0].mean_tests_per_individual < entries[1].mean_tests_per_individual

    def test_low_prevalence_pooling_recommended(self, entries):
        assert entries[0].pooling_recommended
        assert entries[0].expected_savings > 0.3

    def test_accuracy_perfect_with_perfect_test(self, entries):
        assert all(e.mean_accuracy == 1.0 for e in entries)

    def test_replication_metadata(self, entries):
        assert all(e.replications == 6 and e.cohort_size == 10 for e in entries)

    def test_invalid_replications(self):
        with pytest.raises(ValueError):
            pooling_calculator(PerfectTest(), BHAPolicy, [0.1], replications=0)

    def test_table_renders(self, entries):
        out = format_calculator_table([calculator_entry_dict(e) for e in entries])
        assert "prevalence" in out
        assert "1.0%" in out
        assert "pool" in out

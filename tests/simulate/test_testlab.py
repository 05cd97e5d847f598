"""The virtual lab."""

import pytest

from repro.bayes.dilution import BinaryErrorModel, PerfectTest
from repro.simulate.testing import TestLab


class TestLabBasics:
    def test_perfect_positive_pool(self):
        lab = TestLab(PerfectTest(), truth_mask=0b0100, rng=0)
        assert lab.run(0b0110) is True

    def test_perfect_negative_pool(self):
        lab = TestLab(PerfectTest(), truth_mask=0b0100, rng=0)
        assert lab.run(0b1001) is False

    def test_counters(self):
        lab = TestLab(PerfectTest(), truth_mask=0, rng=0)
        lab.run(0b111)
        lab.run(0b1)
        assert lab.num_tests == 2
        assert lab.stats.num_samples_used == 4
        assert len(lab.stats.history) == 2

    def test_empty_pool_rejected(self):
        lab = TestLab(PerfectTest(), truth_mask=0, rng=0)
        with pytest.raises(ValueError):
            lab.run(0)

    def test_noise_uses_rng_deterministically(self):
        model = BinaryErrorModel(0.7, 0.7)
        a = TestLab(model, truth_mask=0b1, rng=42)
        b = TestLab(model, truth_mask=0b1, rng=42)
        assert [a.run(0b1) for _ in range(20)] == [b.run(0b1) for _ in range(20)]

    def test_history_records_outcomes(self):
        lab = TestLab(PerfectTest(), truth_mask=0b1, rng=0)
        lab.run(0b1)
        pool, outcome = lab.stats.history[0]
        assert pool == 0b1 and outcome is True

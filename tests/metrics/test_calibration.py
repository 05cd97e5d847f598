"""Calibration diagnostics."""

import numpy as np
import pytest

from repro.bayes.dilution import BinaryErrorModel, DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.halving.policy import BHAPolicy
from repro.metrics.calibration import calibration_report
from repro.sbgt.config import SBGTConfig
from repro.workflows.classify import run_screen


class TestCalibrationReport:
    def test_perfectly_calibrated_synthetic(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, size=20000)
        y = rng.uniform(0, 1, size=20000) < p
        report = calibration_report(p, y)
        assert report.expected_calibration_error < 0.02
        for b in report.bins:
            if b.count > 500:
                assert abs(b.gap) < 0.05

    def test_overconfident_detected(self):
        # Predictions say 0.9 / 0.1, reality is 0.6 / 0.4.
        rng = np.random.default_rng(1)
        p = np.where(rng.random(5000) < 0.5, 0.9, 0.1)
        y = np.where(p > 0.5, rng.random(5000) < 0.6, rng.random(5000) < 0.4)
        report = calibration_report(p, y)
        assert report.expected_calibration_error > 0.2

    def test_brier_score_extremes(self):
        perfect = calibration_report([1.0, 0.0], [True, False])
        assert perfect.brier_score == 0.0
        worst = calibration_report([1.0, 0.0], [False, True])
        assert worst.brier_score == 1.0

    def test_bin_structure(self):
        report = calibration_report([0.05, 0.95], [False, True], num_bins=10)
        assert len(report.bins) == 10
        assert report.bins[0].count == 1
        assert report.bins[-1].count == 1

    def test_table_renders(self):
        report = calibration_report([0.2, 0.8, 0.5], [False, True, True])
        out = report.to_table()
        assert "Brier" in out and "empirical" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            calibration_report([], [])
        with pytest.raises(ValueError):
            calibration_report([1.5], [True])
        with pytest.raises(ValueError):
            calibration_report([0.5], [True], num_bins=0)
        with pytest.raises(ValueError):
            calibration_report([0.5, 0.1], [True])


class TestScreenCalibration:
    def _screens(self, model, n=40):
        prior = PriorSpec.uniform(8, 0.1)
        return [
            run_screen(prior, model, BHAPolicy(), rng=seed, config=SBGTConfig(max_stages=6))
            for seed in range(n)
        ]

    def _pairs(self, screens):
        """(final marginal, truth) for every individual of every screen."""
        p = np.concatenate([s.report.marginals for s in screens])
        y = np.concatenate([
            [bool((s.cohort.truth_mask >> i) & 1) for i in range(s.cohort.n_items)]
            for s in screens
        ])
        return p, y

    def test_well_specified_model_roughly_calibrated(self):
        # Truncated screens (max_stages=6) leave informative mid-range
        # marginals; with the true model they should not be wildly off.
        screens = self._screens(BinaryErrorModel(0.95, 0.98))
        p, y = self._pairs(screens)
        report = calibration_report(p, y, num_bins=5)
        assert report.expected_calibration_error < 0.12

    def test_misspecified_model_worse(self):
        # Simulate with strong dilution but *infer* assuming none: the
        # posterior becomes overconfident about cleared pools.
        prior = PriorSpec.uniform(8, 0.15)
        true_model = DilutionErrorModel(0.98, 0.99, 1.2)
        wrong_model = BinaryErrorModel(0.98, 0.99)
        from repro.simulate.population import make_cohort
        from repro.simulate.testing import TestLab
        from repro.sbgt.session import SBGTSession

        preds, truths = [], []
        for seed in range(60):
            cohort = make_cohort(prior, rng=seed)
            lab = TestLab(true_model, cohort.truth_mask, rng=seed)
            post = SBGTSession(None, prior, wrong_model)
            post.update([0, 1, 2, 3, 4, 5, 6, 7], lab.run(0xFF))
            for i, m in enumerate(post.marginals()):
                preds.append(m)
                truths.append(cohort.is_positive(i))
        wrong = calibration_report(np.array(preds), np.array(truths), num_bins=5)
        # The well-specified counterpart on identical data:
        preds2, truths2 = [], []
        for seed in range(60):
            cohort = make_cohort(prior, rng=seed)
            lab = TestLab(true_model, cohort.truth_mask, rng=seed)
            post = SBGTSession(None, prior, true_model)
            post.update([0, 1, 2, 3, 4, 5, 6, 7], lab.run(0xFF))
            for i, m in enumerate(post.marginals()):
                preds2.append(m)
                truths2.append(cohort.is_positive(i))
        right = calibration_report(np.array(preds2), np.array(truths2), num_bins=5)
        assert wrong.expected_calibration_error > right.expected_calibration_error

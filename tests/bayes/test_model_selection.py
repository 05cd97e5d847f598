"""Bayes-factor model comparison and evidence export."""

import json

import numpy as np
import pytest

from repro.bayes.dilution import BinaryErrorModel, DilutionErrorModel
from repro.bayes.model_selection import (
    ModelEvidence,
    format_comparison,
    replay_log_evidence,
)
from repro.bayes.priors import PriorSpec
from repro.sbgt.config import SBGTConfig
from repro.sbgt.session import SBGTSession
from repro.simulate.population import make_cohort
from repro.simulate.testing import TestLab


def generate_trail(prior, true_model, rng_seed, pools):
    """Simulate a fixed pool schedule under the true model."""
    cohort = make_cohort(prior, rng=rng_seed)
    lab = TestLab(true_model, cohort.truth_mask, rng=rng_seed)
    return [(pool, lab.run(pool)) for pool in pools]


POOLS = [0b00001111, 0b11110000, 0b00110011, 0b01010101, 0b11111111, 0b00000011]


class TestReplayLogEvidence:
    def test_matches_posterior_evidence(self):
        prior = PriorSpec.uniform(8, 0.1)
        model = BinaryErrorModel(0.95, 0.98)
        trail = generate_trail(prior, model, 3, POOLS)
        direct = replay_log_evidence(prior, model, trail)
        post = SBGTSession(None, prior, model)
        for pool, outcome in trail:
            post.update(pool, outcome)
        assert direct == pytest.approx(post.log.log_evidence, abs=1e-12)

    def test_finite_for_possible_data(self):
        prior = PriorSpec.uniform(8, 0.1)
        model = BinaryErrorModel(0.9, 0.9)
        trail = generate_trail(prior, model, 0, POOLS)
        assert np.isfinite(replay_log_evidence(prior, model, trail))


class TestCompareModels:
    def _candidates(self):
        return {
            "no-dilution": BinaryErrorModel(0.98, 0.99),
            "mild-dilution": DilutionErrorModel(0.98, 0.99, 0.3),
            "strong-dilution": DilutionErrorModel(0.98, 0.99, 1.2),
        }

    def _scored(self, prior, trail):
        return [
            ModelEvidence(name, replay_log_evidence(prior, model, trail))
            for name, model in self._candidates().items()
        ]

    def test_true_model_wins_on_average(self):
        prior = PriorSpec.uniform(8, 0.25)  # enough positives to dilute
        true = DilutionErrorModel(0.98, 0.99, 1.2)
        wins = 0
        trials = 12
        for seed in range(trials):
            trail = generate_trail(prior, true, seed, POOLS * 3)
            best = max(self._scored(prior, trail), key=lambda m: m.log_evidence)
            wins += best.name == "strong-dilution"
        assert wins >= trials * 0.6

    def test_bayes_factor(self):
        a = ModelEvidence("a", -1.0)
        b = ModelEvidence("b", -3.0)
        assert a.bayes_factor_over(b) == pytest.approx(np.exp(2.0))

    def test_format_comparison(self):
        prior = PriorSpec.uniform(6, 0.1)
        trail = generate_trail(prior, BinaryErrorModel(0.95, 0.98), 2, [0b111, 0b111000])
        out = format_comparison(self._scored(prior, trail))
        assert "log evidence" in out and "no-dilution" in out


class TestEvidenceJson:
    def test_round_trips_through_json(self):
        prior = PriorSpec.uniform(5, 0.1)
        post = SBGTSession(None, prior, BinaryErrorModel(0.95, 0.98), SBGTConfig(track_entropy=True))
        post.begin_stage()
        post.update([0, 1, 2], True)
        post.update([3], False)
        payload = json.loads(post.log.to_json())
        assert payload["num_tests"] == 2
        assert payload["tests"][0]["pool_members"] == [0, 1, 2]
        assert payload["tests"][0]["outcome"] is True
        assert payload["tests"][0]["entropy_before"] > 0
        assert payload["log_evidence"] == pytest.approx(post.log.log_evidence)

    def test_continuous_outcomes_coerced(self):
        from repro.bayes.dilution import LogNormalViralLoadModel

        prior = PriorSpec.uniform(4, 0.1)
        post = SBGTSession(None, prior, LogNormalViralLoadModel())
        post.update([0, 1], 5.25)
        payload = json.loads(post.log.to_json())
        assert payload["tests"][0]["outcome"] == pytest.approx(5.25)

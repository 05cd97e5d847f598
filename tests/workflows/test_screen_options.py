"""ScreenOptions: validation, and how the two screen drivers resolve it."""

import numpy as np
import pytest

from repro.bayes.dilution import BinaryErrorModel
from repro.bayes.priors import PriorSpec
from repro.engine import Context
from repro.halving.policy import BHAPolicy
from repro.sbgt.config import SBGTConfig
from repro.sbgt.session import SBGTSession
from repro.simulate.population import Cohort, make_cohort
from repro.workflows.classify import run_screen
from repro.workflows.options import ScreenOptions

MODEL = BinaryErrorModel(0.99, 0.99)
PRIOR = PriorSpec.uniform(6, 0.1)


class TestValidation:
    def test_defaults_are_valid(self):
        opts = ScreenOptions()
        assert opts.positive_threshold == 0.99
        assert opts.negative_threshold == 0.01
        assert opts.max_stages == 50
        assert opts.prune_epsilon == 0.0
        assert opts.track_entropy is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"positive_threshold": 1.5},
            {"negative_threshold": -0.1},
            {"positive_threshold": 0.3, "negative_threshold": 0.4},
            {"positive_threshold": 0.5, "negative_threshold": 0.5},
            {"max_stages": 0},
            {"prune_epsilon": 1.0},
            {"prune_epsilon": -0.01},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScreenOptions(**kwargs)

    def test_with_returns_validated_copy(self):
        opts = ScreenOptions().with_(max_stages=5)
        assert opts.max_stages == 5
        assert ScreenOptions().max_stages == 50  # original untouched
        with pytest.raises(ValueError):
            opts.with_(max_stages=-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ScreenOptions().max_stages = 3


INFECTED = Cohort(prior=PRIOR, truth_mask=0b000101)  # takes several stages to settle


def _screen(**kwargs):
    return run_screen(
        PRIOR, MODEL, BHAPolicy(), rng=np.random.default_rng(0), cohort=INFECTED, **kwargs
    )


class TestResolution:
    def test_options_passed_through(self):
        assert _screen(options=ScreenOptions(max_stages=1)).exhausted_budget

    def test_no_args_yields_defaults(self):
        a, b = _screen(), _screen(options=ScreenOptions())
        assert not a.exhausted_budget
        assert a.stages_used == b.stages_used
        assert a.report.statuses == b.report.statuses

    def test_custom_defaults_used(self):
        # The session's defaults are its SBGTConfig, not ScreenOptions().
        with Context(mode="serial") as ctx:
            session = SBGTSession(ctx, PRIOR, MODEL, SBGTConfig(max_stages=1))
            assert session.run_screen(BHAPolicy(), rng=0, cohort=INFECTED).exhausted_budget

    def test_unknown_keyword_raises_type_error(self):
        with pytest.raises(TypeError, match=r"unexpected keyword.*max_stage\b"):
            _screen(max_stage=3)

    def test_options_plus_legacy_rejected(self):
        # The loose keywords are gone, with or without options=.
        with pytest.raises(TypeError, match="unexpected keyword.*max_stages"):
            _screen(options=ScreenOptions(), max_stages=3)
        with pytest.raises(TypeError, match="unexpected keyword.*track_entropy"):
            _screen(track_entropy=True)


class TestWorkflowDriver:
    def test_unknown_kwarg_names_driver(self):
        with pytest.raises(TypeError, match=r"run_screen\(\)"):
            run_screen(PRIOR, MODEL, BHAPolicy(), rng=0, bogus=1)

    def test_max_stages_budget_respected(self):
        cohort = make_cohort(PRIOR, rng=2)
        res = run_screen(
            PRIOR, MODEL, BHAPolicy(), rng=np.random.default_rng(0), cohort=cohort,
            options=ScreenOptions(max_stages=1),
        )
        assert res.stages_used <= 1


class TestSessionDriver:
    def test_session_accepts_options_and_restores_config(self):
        with Context(mode="serial") as ctx:
            session = SBGTSession(ctx, PRIOR, MODEL)
            before = session.config
            res = session.run_screen(
                BHAPolicy(), rng=0, options=ScreenOptions(max_stages=10)
            )
            assert res.stages_used <= 10
            assert session.config == before  # temporary override rolled back

    def test_session_rejects_options_plus_legacy(self):
        with Context(mode="serial") as ctx:
            session = SBGTSession(ctx, PRIOR, MODEL)
            with pytest.raises(TypeError, match="unexpected keyword.*max_stages"):
                session.run_screen(
                    BHAPolicy(), rng=0,
                    options=ScreenOptions(), max_stages=3,
                )

"""A screen's settings: ``SBGTConfig`` validates them, and one config
reaches every screen entry point."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import repro
from repro.bayes.dilution import BinaryErrorModel
from repro.bayes.posterior import classify_marginals
from repro.bayes.priors import PriorSpec
from repro.engine import Context
from repro.halving.policy import BHAPolicy
from repro.sbgt.config import SBGTConfig
from repro.sbgt.session import SBGTSession
from repro.simulate.population import Cohort, make_cohort
from repro.workflows.classify import run_screen, run_screen_from_space

MODEL = BinaryErrorModel(0.99, 0.99)
PRIOR = PriorSpec.uniform(6, 0.1)


class TestValidation:
    def test_defaults_are_valid(self):
        config = SBGTConfig()
        assert config.positive_threshold == 0.99
        assert config.negative_threshold == 0.01
        assert config.max_stages == 50
        assert config.prune_epsilon == 0.0
        assert config.track_entropy is False

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
            SBGTConfig(**kwargs)

    def test_with_returns_validated_copy(self):
        config = SBGTConfig().with_(max_stages=5)
        assert config.max_stages == 5
        assert SBGTConfig().max_stages == 50  # original untouched
        with pytest.raises(ValueError):
            config.with_(max_stages=-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SBGTConfig().max_stages = 3


INFECTED = Cohort(prior=PRIOR, truth_mask=0b000101)  # takes several stages to settle


def _screen(**kwargs):
    return run_screen(
        PRIOR, MODEL, BHAPolicy(), rng=np.random.default_rng(0), cohort=INFECTED, **kwargs
    )


class TestResolution:
    def test_options_passed_through(self):
        assert _screen(config=SBGTConfig(max_stages=1)).exhausted_budget

    def test_no_args_yields_defaults(self):
        a, b = _screen(), _screen(config=SBGTConfig())
        assert not a.exhausted_budget
        assert a.stages_used == b.stages_used
        assert a.report.statuses == b.report.statuses

    def test_custom_defaults_used(self):
        with Context(mode="serial") as ctx:
            session = SBGTSession(ctx, PRIOR, MODEL, SBGTConfig(max_stages=1))
            assert session.run_screen(BHAPolicy(), rng=0, cohort=INFECTED).exhausted_budget

    def test_unknown_keyword_raises_type_error(self):
        with pytest.raises(TypeError, match=r"unexpected keyword.*max_stage\b"):
            _screen(max_stage=3)

    def test_options_plus_legacy_rejected(self):
        # A setting is a config field, never a loose keyword.
        with pytest.raises(TypeError, match="unexpected keyword.*max_stages"):
            _screen(config=SBGTConfig(), max_stages=3)
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
            config=SBGTConfig(max_stages=1),
        )
        assert res.stages_used <= 1


class TestSessionDriver:
    def test_session_rejects_options_plus_legacy(self):
        # The session's config is the screen's: nothing overrides it per screen.
        with Context(mode="serial") as ctx:
            session = SBGTSession(ctx, PRIOR, MODEL)
            with pytest.raises(TypeError, match="unexpected keyword.*options"):
                session.run_screen(BHAPolicy(), rng=0, options=SBGTConfig(max_stages=3))
            with pytest.raises(TypeError, match="unexpected keyword.*max_stages"):
                session.run_screen(BHAPolicy(), rng=0, max_stages=3)


# Three stages do not settle this cohort, and four individuals end with
# marginals in [0.005, 0.01): negative at the default cut-off, not at 0.005.
COHORT = make_cohort(PRIOR, rng=5)
CONFIG = SBGTConfig(max_stages=3, prune_epsilon=1e-3, track_entropy=True, negative_threshold=0.005)

ENTRY_POINTS = {
    "run_screen": lambda: run_screen(
        PRIOR, MODEL, BHAPolicy(), rng=5, cohort=COHORT, config=CONFIG
    ),
    "run_screen_from_space": lambda: run_screen_from_space(
        PRIOR.build_dense(), MODEL, BHAPolicy(), rng=5, truth_mask=COHORT.truth_mask,
        config=CONFIG,
    ),
    "session": lambda: SBGTSession(None, PRIOR, MODEL, CONFIG).run_screen(
        BHAPolicy(), rng=5, cohort=COHORT
    ),
}


@pytest.fixture
def prunes(monkeypatch):
    """The prunes that changed a lattice, in order."""
    done = []
    prune = SBGTSession.prune

    def counted(session):
        stats = prune(session)
        if stats is not None:
            done.append(stats)
        return stats

    monkeypatch.setattr(SBGTSession, "prune", counted)
    return done


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_screens_by_the_config(entry, prunes):
    result = ENTRY_POINTS[entry]()

    assert result.stages_used == 3 and result.exhausted_budget
    assert len(prunes) == 3
    assert result.posterior.lattice.num_states() < 2**PRIOR.n_items
    records = result.posterior.log.records
    assert records and all(
        r.entropy_before is not None and r.entropy_after is not None for r in records
    )
    marginals = result.report.marginals
    assert result.report.statuses == classify_marginals(marginals, 0.99, 0.005)
    assert result.report.statuses != classify_marginals(marginals, 0.99, 0.01)


def _attributes_read(root: pathlib.Path, skip: pathlib.Path) -> set:
    names = set()
    for path in root.rglob("*.py"):
        if path == skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_config_field_is_read():
    """The one bundle carries no knob that nothing reads."""
    root = pathlib.Path(repro.__file__).parent
    read = _attributes_read(root, root / "sbgt" / "config.py")
    unread = [f.name for f in dataclasses.fields(SBGTConfig) if f.name not in read]
    assert not unread, f"SBGTConfig fields nothing in src/ reads: {unread}"

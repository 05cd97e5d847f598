"""Shared fixtures: engine contexts and canonical model objects."""

from __future__ import annotations

import pathlib
import sys

# Bare `pytest` does not put the repo root on sys.path (only
# `python -m pytest` does); the harness tests import the benchmarks
# package, which lives at the root.
_ROOT = str(pathlib.Path(__file__).resolve().parents[1])
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

import pytest
from hypothesis import settings

from repro.bayes.dilution import BinaryErrorModel, DilutionErrorModel, PerfectTest
from repro.bayes.priors import PriorSpec
from repro.engine import Context
from repro.engine.listener import JobStart, RecordingListener

# Hypothesis' default 200 ms deadline times the machine, not the code: a
# property that passes alone fails a loaded `-x` run.  One profile for
# every `@given` test in the suite.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def ctx():
    """Thread-mode context shared by the whole run (cheap, zero-copy)."""
    with Context(mode="threads", parallelism=4) as c:
        yield c


@pytest.fixture(scope="session")
def serial_ctx():
    """Serial context for determinism-sensitive engine tests."""
    with Context(mode="serial") as c:
        yield c


@pytest.fixture
def jobs(serial_ctx):
    """``jobs()``: engine jobs started on ``serial_ctx`` since the previous call."""
    rec = serial_ctx.add_listener(RecordingListener())

    def started() -> int:
        count = len(rec.of_type(JobStart))
        rec.clear()
        return count

    yield started
    serial_ctx.remove_listener(rec)


@pytest.fixture(scope="session")
def process_ctx():
    """Process-mode context (forked workers); used sparingly — slower."""
    with Context(mode="processes", parallelism=2) as c:
        yield c


@pytest.fixture
def uniform_prior() -> PriorSpec:
    return PriorSpec.uniform(8, 0.05)


@pytest.fixture
def tiered_prior() -> PriorSpec:
    return PriorSpec.from_tiers([(6, 0.02), (2, 0.20)])


@pytest.fixture
def perfect_model() -> PerfectTest:
    return PerfectTest()


@pytest.fixture
def noisy_model() -> BinaryErrorModel:
    return BinaryErrorModel(sensitivity=0.95, specificity=0.98)


@pytest.fixture
def dilution_model() -> DilutionErrorModel:
    return DilutionErrorModel(sensitivity=0.98, specificity=0.99, dilution_exponent=0.4)

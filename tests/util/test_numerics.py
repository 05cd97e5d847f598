"""Stable log-space helpers."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

import repro
from repro.util import log1mexp
from repro.util.numerics import logsumexp


class TestLog1mexp:
    def test_moderate_value_matches_naive(self):
        x = -1.0
        assert log1mexp(x) == pytest.approx(np.log(1.0 - np.exp(-1.0)), rel=1e-14)

    def test_tiny_magnitude_does_not_underflow_to_neg_inf(self):
        # The regression this helper fixes: for |x| below float epsilon,
        # exp(x) rounds to exactly 1.0 and log1p(-exp(x)) returns -inf,
        # although the true value is ~log(|x|).
        x = -1e-18
        naive = np.log1p(-np.exp(x))
        assert np.isneginf(naive)  # documents the failure being fixed
        assert log1mexp(x) == pytest.approx(np.log(1e-18), rel=1e-12)

    def test_large_negative_tail(self):
        # 1 - exp(-50) ≈ 1, so log ≈ -exp(-50): a subnormal-free near-zero.
        x = -50.0
        assert log1mexp(x) == pytest.approx(-np.exp(-50.0), rel=1e-12)

    def test_zero_gives_neg_inf(self):
        assert np.isneginf(log1mexp(0.0))

    def test_tiny_positive_drift_tolerated(self):
        # Aggregation round-off can leave log_kept a hair above zero.
        assert np.isneginf(log1mexp(1e-12))

    def test_genuinely_positive_raises(self):
        with pytest.raises(ValueError):
            log1mexp(0.5)

    def test_array_input(self):
        x = np.array([-1e-18, -0.1, -1.0, -50.0])
        out = log1mexp(x)
        assert isinstance(out, np.ndarray)
        expected = [np.log(1e-18), np.log(-np.expm1(-0.1)), np.log(1 - np.exp(-1.0)), -np.exp(-50.0)]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_scalar_returns_float(self):
        assert isinstance(log1mexp(-1.0), float)

    def test_branch_point_continuous(self):
        # The two branches must agree where they meet (x = -ln 2).
        x = float(np.log(0.5))
        lo = log1mexp(np.nextafter(x, -np.inf))
        hi = log1mexp(np.nextafter(x, 0.0))
        assert lo == pytest.approx(hi, abs=1e-12)


# ----------------------------------------------------------------------
# logsumexp: the serial lattice path's normaliser
# ----------------------------------------------------------------------
@st.composite
def log_vectors(draw):
    """float64 vectors of length 1–4,096, offset by up to ±700, with
    some entries knocked out to −inf."""
    size = draw(st.integers(1, 4096))
    seed = draw(st.integers(0, 2**32 - 1))
    offset = draw(st.floats(-700.0, 700.0))
    spread = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    dropped = draw(st.sampled_from([0.0, 0.1, 0.9]))
    gen = np.random.default_rng(seed)
    a = offset + spread * gen.standard_normal(size)
    a[gen.random(size) < dropped] = -np.inf
    return a


class TestLogsumexp:
    @settings(max_examples=60, deadline=None)
    @given(a=log_vectors())
    def test_matches_scipy(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(a)
        expected = float(scipy_logsumexp(a))
        if np.isneginf(expected):
            assert got == expected
        else:
            assert got == pytest.approx(expected, abs=1e-12, rel=0)

    @pytest.mark.parametrize("a", [np.array([]), np.full(5, -np.inf)], ids=["empty", "all-neg-inf"])
    def test_no_mass_is_neg_inf_without_a_warning(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logsumexp(a) == -np.inf

    def test_pos_inf_and_nan_propagate_as_scipys_do(self):
        assert logsumexp(np.array([0.0, np.inf])) == scipy_logsumexp([0.0, np.inf]) == np.inf
        assert np.isnan(logsumexp(np.array([0.0, np.nan, -np.inf])))
        assert np.isnan(scipy_logsumexp([0.0, np.nan, -np.inf]))

    @pytest.mark.parametrize("x", [0.0, -745.2, 709.9, 1e-300])
    def test_single_element_returns_itself(self, x):
        assert logsumexp(np.array([x])) == x

    def test_returns_a_python_float(self):
        assert type(logsumexp(np.array([0.0, 1.0]))) is float
        assert type(logsumexp(np.array([]))) is float
        assert type(logsumexp(np.array([-np.inf]))) is float

    def test_views_work_and_the_input_is_never_written(self):
        base = np.linspace(-5.0, 5.0, 64)
        expected = float(scipy_logsumexp(base[::3]))
        strided = base[::3]
        assert not strided.flags.c_contiguous
        assert logsumexp(strided) == pytest.approx(expected, abs=1e-12)
        frozen = base.copy()
        frozen.flags.writeable = False
        assert logsumexp(frozen[::3]) == pytest.approx(expected, abs=1e-12)
        assert logsumexp(frozen) == pytest.approx(float(scipy_logsumexp(base)), abs=1e-12)
        assert np.array_equal(frozen, np.linspace(-5.0, 5.0, 64))


#: Serial exact-posterior modules: scipy's dispatcher costs more than
#: their arithmetic, so they take ``repro.util.numerics.logsumexp``.
HOT_PATH = (
    "lattice/ops.py",
    "lattice/states.py",
    "lattice/builder.py",
    "bayes/posterior.py",
    "bayes/correlated.py",
)
#: The approximate backends still import scipy's (ROADMAP item 5).  The
#: repo's ``logsumexp`` agrees with scipy's only to 1e-12, so swapping it
#: in would move the last bits of every sparse and particle payload; the
#: nonzero-index kernels kept every bit and left it in place.
SCIPY_LOGSUMEXP_ALLOWED = {"sbgt/sparse.py", "sbgt/particle.py"}


def _imports_scipy_logsumexp(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            if any(alias.name in ("logsumexp", "*") for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "logsumexp":
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in ("scipy", "special"):
                return True
    return False


def test_scipy_logsumexp_stays_off_the_serial_hot_path():
    root = Path(repro.__file__).resolve().parent
    importers = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if _imports_scipy_logsumexp(path)
    }
    assert not importers & set(HOT_PATH)
    assert importers <= SCIPY_LOGSUMEXP_ALLOWED

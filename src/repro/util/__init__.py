"""Shared low-level utilities: bit manipulation, RNG handling, validation.

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` builds on them.
"""

from repro.util.bits import (
    indices_from_mask,
    popcount64,
    intersect_count,
)
from repro.util.numerics import log1mexp
from repro.util.rng import as_rng
from repro.util.validation import (
    check_probability,
    check_probability_array,
    check_positive_int,
    check_in_range,
)

__all__ = [
    "indices_from_mask",
    "popcount64",
    "intersect_count",
    "log1mexp",
    "as_rng",
    "check_probability",
    "check_probability_array",
    "check_positive_int",
    "check_in_range",
]

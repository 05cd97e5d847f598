"""Vectorised bit-mask kernels used by the lattice representation.

Lattice states are encoded as ``uint64`` bit masks: bit ``i`` set means
individual ``i`` is infected in that state.  All kernels below operate on
whole NumPy arrays of masks at once; no per-state Python loops.  These are
the innermost primitives of every hot path in the library, so they stick to
branch-free integer arithmetic.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "MAX_ITEMS",
    "indices_from_mask",
    "as_mask_array",
    "popcount64",
    "popcount_any",
    "intersect_count",
    "bit_column",
]

#: Maximum number of individuals representable in a single uint64 mask.
MAX_ITEMS = 64

# SWAR popcount constants (Hacker's Delight, fig. 5-2), as unsigned 64-bit.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_SHIFT56 = np.uint64(56)


def indices_from_mask(mask: int) -> list[int]:
    """Return the sorted list of set-bit positions of *mask*.

    One step per set bit (the lowest one, ``mask & -mask``), not per bit
    position: a 60-member pool of a 120-person cohort takes 60 steps.
    """
    mask = int(mask)
    if mask < 0:
        raise ValueError("mask must be non-negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def as_mask_array(masks: Iterable[int]) -> np.ndarray:
    """Pack masks into a NumPy array, widening past 64 bits when needed.

    Cohorts up to :data:`MAX_ITEMS` individuals pack into ``uint64``
    (the fast path every lattice kernel assumes); larger cohorts — the
    approximate posterior backends go well past 64 — fall back to an
    ``object`` array of Python ints, which keeps exact bitwise semantics
    at the cost of vectorisation.
    """
    vals = [int(m) for m in masks]
    if all(0 <= v < (1 << MAX_ITEMS) for v in vals):
        return np.asarray(vals, dtype=np.uint64)
    return np.asarray(vals, dtype=object)


def popcount_any(masks: np.ndarray) -> np.ndarray:
    """Population count accepting uint64 *or* object (big-int) arrays."""
    arr = np.asarray(masks)
    if arr.dtype == object:
        return np.asarray([int(m).bit_count() for m in arr], dtype=np.int64)
    return popcount64(arr)


def _popcount64_swar(masks: np.ndarray) -> np.ndarray:
    """SWAR popcount (Hacker's Delight fig. 5-2) for NumPy < 2.0."""
    x = np.ascontiguousarray(masks, dtype=np.uint64)
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> _SHIFT56).astype(np.int64)


def _popcount64_native(masks: np.ndarray) -> np.ndarray:
    """Hardware popcount via ``np.bitwise_count`` (NumPy ≥ 2.0).

    Measured ~14× faster than the SWAR chain on this build — it is the
    innermost op of every Bayes update and down-set sweep, so the
    dispatch below is worth its one-time check.
    """
    return np.bitwise_count(np.ascontiguousarray(masks, dtype=np.uint64)).astype(
        np.int64
    )


if hasattr(np, "bitwise_count"):
    _popcount64_impl = _popcount64_native
else:  # pragma: no cover - depends on installed NumPy
    _popcount64_impl = _popcount64_swar


def popcount64(masks: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array.

    Returns an ``int64`` array of the same shape.  This is the vectorised
    replacement for per-state ``bin(s).count('1')`` loops in the baseline;
    uses the hardware instruction on NumPy ≥ 2.0, SWAR otherwise.
    """
    return _popcount64_impl(masks)


def intersect_count(masks: np.ndarray, pool_mask: int) -> np.ndarray:
    """Number of infected individuals each state places inside *pool_mask*.

    For a pooled test of the individuals in ``pool_mask`` this is the
    per-state positive count ``k`` that the dilution likelihood
    ``f(y | k, n)`` depends on.
    """
    return popcount64(np.asarray(masks, dtype=np.uint64) & np.uint64(pool_mask))


def bit_column(masks: np.ndarray, bit: int) -> np.ndarray:
    """Boolean array: is *bit* set in each mask?  (Marginal indicator.)"""
    if not 0 <= bit < MAX_ITEMS:
        raise ValueError(f"bit index {bit} outside [0, {MAX_ITEMS})")
    m = np.asarray(masks, dtype=np.uint64)
    return (m >> np.uint64(bit)) & np.uint64(1) == np.uint64(1)

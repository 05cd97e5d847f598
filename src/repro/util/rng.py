"""Deterministic random-number-generator plumbing.

Every stochastic API in the library accepts ``rng`` as either a seed, a
``numpy.random.Generator``, or ``None`` and normalises it through
:func:`as_rng`, so whole experiments replay bit-identically from one seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = ["as_rng", "RngLike"]


def as_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce *rng* into a ``numpy.random.Generator``.

    ``None`` yields a fresh non-deterministic generator; an int seeds one;
    an existing generator passes through untouched (shared mutable state —
    intentional, so sequential calls advance one stream).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(rng)
    raise TypeError(f"cannot interpret {type(rng).__name__} as an RNG")

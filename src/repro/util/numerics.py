"""Numerically stable log-space helpers.

The group-testing code spends its life in log space; the classic trap is
``log(1 - exp(x))`` for ``x`` near 0 or very negative.  ``log1mexp``
implements the standard two-branch formulation (Mächler 2012): for
``x > -ln 2`` use ``log(-expm1(x))`` (``1 - e^x`` loses precision but
``expm1`` does not), otherwise ``log1p(-exp(x))`` (``e^x`` is tiny, so
``log1p`` keeps the leading digits).

``logsumexp`` is the serial lattice path's normaliser: the plain
``max`` / ``exp`` / ``sum`` / ``log`` of a 1-D array.  On a 1,024-state
lattice that arithmetic takes ~5 µs; ``scipy.special.logsumexp`` wraps
it in ~80 µs of array-API dispatch (docs/performance.md, "Site screens
at kernel speed").
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

__all__ = ["log1mexp", "logsumexp", "tie_key"]

_LOG_HALF = float(np.log(0.5))  # -ln 2, the branch point


def log1mexp(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Stable ``log(1 - exp(x))`` for ``x <= 0``.

    Returns ``-inf`` at ``x == 0`` (and for tiny positive drift, which a
    renormalisation residual can legitimately produce); raises for
    genuinely positive ``x`` where ``1 - e^x`` is negative.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr > 1e-9):
        raise ValueError("log1mexp requires x <= 0 (1 - exp(x) must be non-negative)")
    arr = np.minimum(arr, 0.0)
    with np.errstate(divide="ignore"):  # log(0) -> -inf is the wanted answer
        out = np.where(
            arr > _LOG_HALF,
            np.log(-np.expm1(arr)),
            np.log1p(-np.exp(arr)),
        )
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def logsumexp(a: np.ndarray) -> float:
    """``log Σ exp(a)`` of a 1-D float64 array, as a Python float.

    Agrees with ``scipy.special.logsumexp`` to 1e-12 and, like it,
    returns ``-inf`` for empty and all ``-inf`` input (without a
    warning) and lets ``+inf`` and NaN through.  *a* is only read.
    """
    if a.size == 0:
        return -math.inf
    peak = float(a.max())
    if not math.isfinite(peak):
        return peak
    terms = a - peak
    np.exp(terms, out=terms)
    return peak + math.log(float(terms.sum()))


def tie_key(values: Union[float, np.ndarray]) -> np.ndarray:
    """Probabilities quantised to 1e-12, for ordering only.

    Quantities that are equal in exact arithmetic (the marginals of
    exchangeable individuals, the halving gaps of symmetric pools) come
    out of different kernels an ulp apart.  Sorting on this key makes
    them compare equal, so the documented secondary keys (index, pool
    size, mask) break the tie identically whatever kernel, block split
    or executor mode produced the numbers.  Meant for exact posteriors:
    an approximate backend's statistics are ordered as computed.
    """
    return np.round(np.asarray(values, dtype=np.float64) * 1e12)

"""Information-theoretic bounds on group-testing cost.

Every binary test outcome carries at most one bit, so classifying a
cohort whose infection state has Shannon entropy ``H`` bits needs at
least ``H`` expected tests (the counting/Shannon lower bound, valid for
*any* adaptive noiseless strategy).  The experiments use this floor to
report how close the Bayesian Halving Algorithm gets to optimal — a
stronger statement than beating Dorfman.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.bayes.priors import PriorSpec
from repro.lattice.ops import entropy as space_entropy
from repro.lattice.states import StateSpace

__all__ = [
    "prior_entropy_bits",
    "min_expected_tests",
]

_LN2 = math.log(2.0)


def prior_entropy_bits(prior: Union[PriorSpec, StateSpace]) -> float:
    """Shannon entropy (bits) of the cohort's infection state.

    For a :class:`PriorSpec` the independence structure gives the closed
    form ``Σ h(p_i)`` without building the lattice; a raw
    :class:`StateSpace` (e.g. a household prior) is evaluated directly.
    """
    if isinstance(prior, PriorSpec):
        p = np.clip(prior.risks, 1e-15, 1 - 1e-15)
        h_nats = -(p * np.log(p) + (1 - p) * np.log1p(-p)).sum()
        return float(h_nats / _LN2)
    if isinstance(prior, StateSpace):
        return float(space_entropy(prior) / _LN2)
    raise TypeError("prior must be a PriorSpec or StateSpace")


def min_expected_tests(prior: Union[PriorSpec, StateSpace]) -> float:
    """Shannon floor: expected binary tests any noiseless strategy needs."""
    return prior_entropy_bits(prior)

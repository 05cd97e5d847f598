"""Prior risk specifications for a testing cohort.

The Bayesian framework's key practical advantage over frequency-designed
pooling (Dorfman grids etc.) is that it *acknowledges varying individual
risk*: each individual carries their own prior infection probability,
from symptoms, exposure history, or surveillance context.  A
:class:`PriorSpec` is that vector plus convenience constructors for the
cohort structures used in the experiments (uniform prevalence, risk
tiers, outbreak contacts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.lattice.builder import build_dense_prior
from repro.lattice.states import StateSpace
from repro.util.rng import RngLike, as_rng
from repro.util.validation import check_positive_int, check_probability

__all__ = ["PriorSpec"]

# Risks are clipped into this open interval: a 0/1 prior is a settled
# diagnosis, which belongs in conditioning, not in the prior model.
_MIN_RISK = 1e-9
_MAX_RISK = 1.0 - 1e-9


@dataclass(frozen=True)
class PriorSpec:
    """Per-individual prior infection probabilities."""

    risks: np.ndarray

    def __post_init__(self) -> None:
        risks = np.asarray(self.risks, dtype=np.float64)
        if risks.ndim != 1 or risks.size == 0:
            raise ValueError("risks must be a non-empty 1-D array")
        if np.any(~np.isfinite(risks)) or np.any(risks < 0.0) or np.any(risks > 1.0):
            raise ValueError("risks must be probabilities in [0, 1]")
        object.__setattr__(self, "risks", np.clip(risks, _MIN_RISK, _MAX_RISK))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, n: int, prevalence: float) -> "PriorSpec":
        """Everyone shares one prior prevalence."""
        n = check_positive_int(n, "n")
        prevalence = check_probability(prevalence, "prevalence")
        return cls(np.full(n, prevalence))

    @classmethod
    def from_tiers(cls, tiers: Sequence[Tuple[int, float]]) -> "PriorSpec":
        """Risk tiers, e.g. ``[(8, 0.01), (4, 0.10)]`` = 8 low + 4 high."""
        parts = []
        for count, risk in tiers:
            count = check_positive_int(count, "tier count")
            risk = check_probability(risk, "tier risk")
            parts.append(np.full(count, risk))
        if not parts:
            raise ValueError("at least one tier required")
        return cls(np.concatenate(parts))

    @classmethod
    def sampled(
        cls, n: int, mean_prevalence: float, dispersion: float = 2.0, rng: RngLike = None
    ) -> "PriorSpec":
        """Heterogeneous risks from a Beta distribution with given mean.

        ``dispersion`` is the Beta pseudo-count total (smaller = more
        spread between low- and high-risk individuals).
        """
        n = check_positive_int(n, "n")
        m = check_probability(mean_prevalence, "mean_prevalence")
        if dispersion <= 0:
            raise ValueError("dispersion must be positive")
        m = min(max(m, 1e-6), 1 - 1e-6)
        a, b = m * dispersion, (1.0 - m) * dispersion
        return cls(as_rng(rng).beta(a, b, size=n))

    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        return int(self.risks.size)

    # ------------------------------------------------------------------
    # lattice construction
    # ------------------------------------------------------------------
    def build_dense(self) -> StateSpace:
        """Full 2^n lattice with this prior (n ≤ 30)."""
        return build_dense_prior(self.risks)

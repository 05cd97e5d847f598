"""Classification read-outs of a belief state's marginals.

:func:`classify_marginals` is the one thresholding rule every surface
uses, and :class:`ClassificationReport` what it returns.  The belief
state itself is :class:`~repro.sbgt.session.SBGTSession`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.bayes.dilution import ResponseModel
from repro.bayes.priors import PriorSpec

if TYPE_CHECKING:  # pragma: no cover - repro.sbgt imports this module back
    from repro.sbgt.session import SBGTSession

__all__ = ["Posterior", "Classification", "ClassificationReport", "classify_marginals"]


class Classification(enum.Enum):
    """Per-individual terminal status of a screen."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNDETERMINED = "undetermined"


#: Relative margin by which a marginal must clear a threshold to be called.
_THRESHOLD_MARGIN = 1e-9


def classify_marginals(
    marginals: Sequence[float], positive_threshold: float, negative_threshold: float
) -> Tuple[Classification, ...]:
    """Threshold marginals into statuses — the one rule every surface uses.

    An individual is POSITIVE when their marginal reaches
    ``positive_threshold`` and NEGATIVE when it falls to
    ``negative_threshold``, each by a relative margin of 1e-9: a marginal
    that *equals* a threshold in exact arithmetic (a uniform prior at
    prevalence 0.01 against the default 0.01) lands an ulp above or
    below it depending on summation order, so it stays UNDETERMINED in
    every backend instead of flipping with the rounding.  Thresholds of
    exactly 0 and 1 still call marginals of exactly 0 and 1.
    """
    if not 0.0 <= negative_threshold < positive_threshold <= 1.0:
        raise ValueError("need 0 <= negative_threshold < positive_threshold <= 1")
    negative_cut = negative_threshold * (1.0 - _THRESHOLD_MARGIN)
    positive_gap = (1.0 - positive_threshold) * (1.0 - _THRESHOLD_MARGIN)
    return tuple(
        Classification.POSITIVE
        if 1.0 - m <= positive_gap
        else Classification.NEGATIVE
        if m <= negative_cut
        else Classification.UNDETERMINED
        for m in marginals
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Thresholded read-out of the posterior marginals."""

    marginals: np.ndarray
    statuses: Tuple[Classification, ...]

    @property
    def n_classified(self) -> int:
        return sum(1 for s in self.statuses if s is not Classification.UNDETERMINED)

    @property
    def all_classified(self) -> bool:
        return self.n_classified == len(self.statuses)

    def positives(self) -> List[int]:
        return [i for i, s in enumerate(self.statuses) if s is Classification.POSITIVE]

    def negatives(self) -> List[int]:
        return [i for i, s in enumerate(self.statuses) if s is Classification.NEGATIVE]

    def undetermined(self) -> List[int]:
        return [i for i, s in enumerate(self.statuses) if s is Classification.UNDETERMINED]

    def undetermined_mask(self) -> int:
        """Bit mask of still-undetermined individuals (policy 'eligible' set)."""
        mask = 0
        for i in self.undetermined():
            mask |= 1 << i
        return mask


class Posterior:
    """Builds the exact belief state: an :class:`~repro.sbgt.session.SBGTSession`
    with no engine context, whose dense lattice is one driver-resident block."""

    @staticmethod
    def from_prior(prior: PriorSpec, model: ResponseModel) -> "SBGTSession":
        """A context-free dense session over *prior*."""
        from repro.sbgt.session import SBGTSession

        return SBGTSession(None, prior, model)

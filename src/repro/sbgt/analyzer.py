"""Statistical analyses over a posterior backend (operation class R3).

Everything a surveillance program reads off the posterior — marginals,
classification reports, entropy, credible state sets — phrased against
the :class:`~repro.sbgt.backend.PosteriorBackend` protocol, returning
the same objects as the serial analyses so reports are interchangeable.
On the dense lattice each read is a tree aggregation over the engine; on
the sparse/particle backends it is driver-local NumPy — the analyzer
cannot tell and does not care.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.bayes.posterior import ClassificationReport, classify_marginals
from repro.obs.tracer import PHASE_ANALYSIS, traced
from repro.sbgt.backend import PosteriorBackend

__all__ = ["DistributedAnalyzer"]


class DistributedAnalyzer:
    """Read-only statistical views of a :class:`PosteriorBackend`."""

    def __init__(self, lattice: PosteriorBackend) -> None:
        self.lattice = lattice

    def marginals(self) -> np.ndarray:
        """Per-individual posterior infection probability."""
        return self.lattice.marginals()

    def entropy(self) -> float:
        """Posterior Shannon entropy (nats)."""
        return self.lattice.entropy()

    def map_state(self) -> int:
        """Most probable infection pattern."""
        return self.lattice.map_state()

    def top_states(self, k: int) -> List[Tuple[int, float]]:
        """Top-k states with normalised probabilities."""
        return self.lattice.top_states(k)

    @traced(PHASE_ANALYSIS, "credible_states")
    def credible_states(self, mass: float = 0.95, limit: int = 4096) -> List[Tuple[int, float]]:
        """Smallest set of top states jointly covering ≥ *mass*.

        ``limit`` bounds the candidate set fetched from the cluster; if
        the credible set is larger than *limit* the call raises rather
        than silently truncating.
        """
        if not 0.0 < mass <= 1.0:
            raise ValueError("mass must be in (0, 1]")
        top = self.lattice.top_states(limit)
        out: List[Tuple[int, float]] = []
        acc = 0.0
        for state, p in top:
            out.append((state, p))
            acc += p
            if acc >= mass:
                return out
        raise ValueError(
            f"credible set exceeds limit={limit} states (covered {acc:.4f} of {mass})"
        )

    @traced(PHASE_ANALYSIS, "classify")
    def classify(
        self, positive_threshold: float = 0.99, negative_threshold: float = 0.01
    ) -> ClassificationReport:
        """Threshold the marginals into a classification report."""
        marg = self.marginals()
        statuses = classify_marginals(marg, positive_threshold, negative_threshold)
        return ClassificationReport(marginals=marg, statuses=statuses)

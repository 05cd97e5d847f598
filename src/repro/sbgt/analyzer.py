"""Statistical analyses over a posterior backend (operation class R3).

Everything a surveillance program reads off the posterior — marginals,
entropy, the MAP state, top states — phrased against the
:class:`~repro.sbgt.backend.PosteriorBackend` protocol.
On the dense lattice each read is a tree aggregation over the engine; on
the sparse/particle backends it is driver-local NumPy — the analyzer
cannot tell and does not care.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

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

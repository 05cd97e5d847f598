"""Single-threaded NumPy comparator.

Sits between the pure-Python dict baseline and distributed SBGT in the
speedup ablation: it shares SBGT's vectorised kernels but runs them on
one unpartitioned array with no engine.  Comparing all three separates
how much of SBGT's win comes from vectorisation versus parallel
execution — the decomposition experiment R8 reports.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.bayes.dilution import ResponseModel
from repro.bayes.posterior import Posterior
from repro.bayes.priors import PriorSpec
from repro.halving.bha import select_halving_pool
from repro.lattice import ops as lops
from repro.lattice.states import StateSpace
from repro.util.bits import popcount64

__all__ = ["NumpySerialRunner"]


class NumpySerialRunner:
    """Drives the vectorised kernels serially (one array, one thread)."""

    def __init__(self, prior: PriorSpec, model: ResponseModel) -> None:
        self.space: StateSpace = prior.build_dense()
        self.model = model
        self.num_tests = 0

    @property
    def n_items(self) -> int:
        return self.space.n_items

    def update(self, pool_mask: int, outcome: Any) -> None:
        pool_size = int(popcount64(np.asarray([pool_mask], dtype=np.uint64))[0])
        log_lik = self.model.log_likelihood_by_count(outcome, pool_size)
        lops.posterior_update(self.space, pool_mask, log_lik)
        self.num_tests += 1

    def marginals(self) -> np.ndarray:
        return lops.marginals(self.space)

    def entropy(self) -> float:
        return lops.entropy(self.space)

    def select_halving_pool(self, candidate_masks: Sequence[int]) -> Tuple[int, float, float]:
        belief = Posterior(self.space, self.model)  # a view: shares the space
        return select_halving_pool(belief, np.asarray(candidate_masks, dtype=np.uint64))

    def top_states(self, k: int) -> List[Tuple[int, float]]:
        return lops.top_states(self.space, k)

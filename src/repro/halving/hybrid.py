"""Hybrid selection: non-adaptive first round, Bayesian refinement after.

Labs like non-adaptive first rounds — all stage-1 pools are known before
any result returns, so plates can be prepared in advance.  Full
sequential halving is maximally test-efficient but serial.  The hybrid
runs an optimally-sized Dorfman grid as stage 1 (non-adaptive,
plate-friendly), then lets the Bayesian Halving Algorithm refine the
posterior those pools produced — usually recovering most of pure BHA's
test savings at a fraction of its stage count.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.halving.candidates import CandidateGenerator
from repro.halving.policy import BHAPolicy, DorfmanPolicy, SelectionPolicy

__all__ = ["HybridPolicy"]


class HybridPolicy(SelectionPolicy):
    """Dorfman stage 1, Bayesian halving afterwards.

    Parameters
    ----------
    pool_size:
        Stage-1 Dorfman pool size; ``None`` sizes it optimally from the
        cohort's mean prior risk at selection time (the 1/√p rule).
    candidates:
        Candidate generator for the BHA refinement stages.
    """

    def __init__(
        self,
        pool_size: Optional[int] = None,
        candidates: Optional[CandidateGenerator] = None,
    ) -> None:
        self.pool_size = pool_size
        self._bha = BHAPolicy(candidates)
        self._stage = 0
        self.name = f"hybrid-{pool_size if pool_size else 'auto'}"

    def reset(self) -> None:
        self._stage = 0

    def _stage_one(self, posterior, eligible_mask: int) -> DorfmanPolicy:
        if self.pool_size is not None:
            return DorfmanPolicy(self.pool_size)
        marginals = np.asarray(posterior.marginals(), dtype=np.float64)
        members = [i for i in range(len(marginals)) if (eligible_mask >> i) & 1]
        mean_risk = float(np.clip(marginals[members].mean(), 1e-6, 1 - 1e-6))
        return DorfmanPolicy.optimal_for(mean_risk, max_pool_size=len(members))

    def select(self, belief, eligible_mask: int) -> List[int]:
        """A fresh Dorfman grid first, the halving policy afterwards."""
        self._stage += 1
        policy = self._stage_one(belief, eligible_mask) if self._stage == 1 else self._bha
        return policy.select(belief, eligible_mask)

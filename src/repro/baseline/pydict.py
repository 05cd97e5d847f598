"""Per-state pure-Python reference implementation (the comparator).

Every operation loops over a ``{state_mask: probability}`` dict exactly
the way a straightforward research implementation of the Biostatistics'22
framework does.  *No NumPy in any per-state path* — that is the point:
R1–R3 time these loops against SBGT's partitioned kernels, and the unit
suite uses this class as an independent oracle for correctness (same
math, disjoint implementation).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.bayes.dilution import ResponseModel
from repro.bayes.posterior import classify_marginals

__all__ = ["PyDictLattice", "PyDictPosterior"]


def _popcount(x: int) -> int:
    return bin(x).count("1")


class PyDictLattice:
    """A lattice model as a plain dict of linear-space probabilities."""

    def __init__(self, n_items: int, probs: Dict[int, float]) -> None:
        if not probs:
            raise ValueError("lattice must contain at least one state")
        self.n_items = int(n_items)
        self.probs = dict(probs)

    # ------------------------------------------------------------------
    @classmethod
    def from_risks(cls, risks: Sequence[float]) -> "PyDictLattice":
        """Product-Bernoulli prior, built state by state."""
        n = len(risks)
        probs: Dict[int, float] = {}
        for state in range(1 << n):
            p = 1.0
            for i in range(n):
                if (state >> i) & 1:
                    p *= risks[i]
                else:
                    p *= 1.0 - risks[i]
            probs[state] = p
        return cls(n, probs)

    @property
    def size(self) -> int:
        return len(self.probs)

    def total_mass(self) -> float:
        return sum(self.probs.values())

    def normalize(self) -> None:
        total = self.total_mass()
        if total <= 0.0:
            raise ValueError("cannot normalize zero-mass lattice")
        for state in self.probs:
            self.probs[state] /= total

    # ------------------------------------------------------------------
    # lattice manipulation (timed by R1)
    # ------------------------------------------------------------------
    def bayes_update(self, pool_mask: int, lik_by_count: Sequence[float]) -> None:
        """Multiply each state by the outcome likelihood and renormalise."""
        for state in self.probs:
            k = _popcount(state & pool_mask)
            self.probs[state] *= lik_by_count[k]
        self.normalize()

    def prune(self, epsilon: float) -> int:
        """Keep the smallest top-probability set with mass ≥ 1-ε."""
        ranked = sorted(self.probs.items(), key=lambda kv: (-kv[1], kv[0]))
        kept: Dict[int, float] = {}
        mass = 0.0
        for state, p in ranked:
            kept[state] = p
            mass += p
            if mass >= 1.0 - epsilon:
                break
        dropped = len(self.probs) - len(kept)
        self.probs = kept
        self.normalize()
        return dropped

    # ------------------------------------------------------------------
    # test selection (timed by R2)
    # ------------------------------------------------------------------
    def down_set_mass(self, pool_mask: int) -> float:
        total = 0.0
        for state, p in self.probs.items():
            if state & pool_mask == 0:
                total += p
        return total

    def select_halving_pool(self, candidate_masks: Iterable[int]) -> Tuple[int, float, float]:
        """Arg-min of |down-set mass − 1/2| with the same tie-breaking
        as :func:`repro.halving.bha.select_halving_pool`."""
        best: Tuple[float, int, int] | None = None
        best_mass = 0.0
        for pool in candidate_masks:
            pool = int(pool)
            mass = self.down_set_mass(pool)
            key = (abs(mass - 0.5), _popcount(pool), pool)
            if best is None or key < best:
                best = key
                best_mass = mass
        if best is None:
            raise ValueError("no candidate pools supplied")
        return best[2], best_mass, best[0]

    # ------------------------------------------------------------------
    # statistical analysis (timed by R3)
    # ------------------------------------------------------------------
    def marginals(self) -> List[float]:
        out = [0.0] * self.n_items
        for state, p in self.probs.items():
            for i in range(self.n_items):
                if (state >> i) & 1:
                    out[i] += p
        return out

    def entropy(self) -> float:
        h = 0.0
        for p in self.probs.values():
            if p > 0.0:
                h -= p * math.log(p)
        return h

    def map_state(self) -> int:
        return max(self.probs.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def top_states(self, k: int) -> List[Tuple[int, float]]:
        ranked = sorted(self.probs.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


class PyDictPosterior:
    """Posterior façade over :class:`PyDictLattice` (mirrors ``Posterior``)."""

    def __init__(self, risks: Sequence[float], model: ResponseModel) -> None:
        self.lattice = PyDictLattice.from_risks(list(risks))
        self.model = model
        self.num_tests = 0

    @property
    def n_items(self) -> int:
        return self.lattice.n_items

    def update(self, pool: Sequence[int] | int, outcome: Any) -> None:
        if isinstance(pool, int):
            pool_mask = pool
        else:
            pool_mask = 0
            for i in pool:
                pool_mask |= 1 << int(i)
        pool_size = _popcount(pool_mask)
        log_lik = self.model.log_likelihood_by_count(outcome, pool_size)
        lik = [math.exp(v) for v in log_lik]
        self.lattice.bayes_update(pool_mask, lik)
        self.num_tests += 1

    def marginals(self) -> List[float]:
        return self.lattice.marginals()

    def classify(
        self, positive_threshold: float = 0.99, negative_threshold: float = 0.01
    ) -> List[str]:
        statuses = classify_marginals(self.marginals(), positive_threshold, negative_threshold)
        return [status.value for status in statuses]

"""The virtual lab: applies a response model to ground truth.

Every pooled test in an experiment flows through a :class:`TestLab`,
which knows the hidden truth, draws the assay outcome from the response
model (dilution included), and keeps the consumption statistics
(tests, samples pipetted, stages) the efficiency experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Tuple



from repro.bayes.dilution import ResponseModel
from repro.util.rng import RngLike, as_rng

__all__ = ["LabStats", "TestLab"]


@dataclass
class LabStats:
    """Cumulative lab consumption counters."""

    num_tests: int = 0
    num_samples_used: int = 0  # Σ pool sizes: pipetting / reagent volume
    history: List[Tuple[int, Any]] = field(default_factory=list)

    def record(self, pool_mask: int, outcome: Any) -> None:
        self.num_tests += 1
        self.num_samples_used += bin(pool_mask).count("1")
        self.history.append((pool_mask, outcome))


class TestLab:
    """Simulated assay bench bound to one cohort's ground truth."""

    # Not a pytest class, despite the name pattern.
    __test__ = False

    def __init__(self, model: ResponseModel, truth_mask: int, rng: RngLike = None) -> None:
        self.model = model
        self.truth_mask = int(truth_mask)
        self._rng = as_rng(rng)
        self.stats = LabStats()

    def run(self, pool_mask: int) -> Any:
        """Assay one pool; returns the (possibly noisy, diluted) outcome."""
        pool_mask = int(pool_mask)
        if pool_mask <= 0:
            raise ValueError("pool must contain at least one individual")
        pool_size = bin(pool_mask).count("1")
        k_true = bin(pool_mask & self.truth_mask).count("1")
        outcome = self.model.sample(k_true, pool_size, self._rng)
        self.stats.record(pool_mask, outcome)
        return outcome

    @property
    def num_tests(self) -> int:
        return self.stats.num_tests

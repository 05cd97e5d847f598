"""Evidence (marginal-likelihood) tracking across a test sequence.

Each pooled test contributes a predictive log-probability
``log m(y_t | y_{1:t-1})``; their sum is the model evidence of the whole
screen.  Sessions log these alongside the tests so analyses can compare
response models or detect assay drift (a collapsing evidence trail means
the model stopped explaining the outcomes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

__all__ = ["TestRecord", "EvidenceLog"]


@dataclass(frozen=True)
class TestRecord:
    """One pooled test: who was pooled, what came back, how surprising."""

    # Not a pytest class, despite the name pattern.
    __test__ = False

    stage: int
    pool_mask: int
    pool_size: int
    outcome: Any
    log_predictive: float
    entropy_before: Optional[float] = None
    entropy_after: Optional[float] = None

    @property
    def information_gain(self) -> Optional[float]:
        """Entropy reduction delivered by this test (nats), if tracked."""
        if self.entropy_before is None or self.entropy_after is None:
            return None
        return self.entropy_before - self.entropy_after


@dataclass
class EvidenceLog:
    """Append-only log of the test sequence."""

    records: List[TestRecord] = field(default_factory=list)

    def append(self, record: TestRecord) -> None:
        self.records.append(record)

    @property
    def num_tests(self) -> int:
        return len(self.records)

    @property
    def num_stages(self) -> int:
        return len({r.stage for r in self.records})

    @property
    def log_evidence(self) -> float:
        """Total log marginal likelihood of all observed outcomes."""
        return float(sum(r.log_predictive for r in self.records))

    def to_json(self) -> str:
        """Serialize the full test trail (audit-log export).

        Pool masks are emitted both raw and as member index lists so the
        log is readable without bit arithmetic.  Non-JSON outcomes
        (e.g. numpy floats) are coerced through ``float``/``bool``.
        """
        import json

        def coerce(outcome):
            if isinstance(outcome, bool):
                return outcome
            try:
                return float(outcome)
            except (TypeError, ValueError):
                return str(outcome)

        payload = [
            {
                "stage": r.stage,
                "pool_mask": int(r.pool_mask),
                "pool_members": [
                    i for i in range(64) if (int(r.pool_mask) >> i) & 1
                ],
                "pool_size": r.pool_size,
                "outcome": coerce(r.outcome),
                "log_predictive": r.log_predictive,
                "entropy_before": r.entropy_before,
                "entropy_after": r.entropy_after,
            }
            for r in self.records
        ]
        return json.dumps(
            {
                "num_tests": self.num_tests,
                "num_stages": self.num_stages,
                "log_evidence": self.log_evidence,
                "tests": payload,
            },
            indent=2,
        )

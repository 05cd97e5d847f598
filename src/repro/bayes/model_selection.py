"""Response-model comparison by marginal likelihood (Bayes factors).

A screen's evidence log records every pooled outcome.  Replaying that
trail under candidate response models yields each model's log marginal
likelihood of the observed data; their differences are log Bayes
factors.  In operation this answers "is our assay actually diluting?"
from screening data alone — no ground truth needed — which is how a
surveillance program would detect that its inference model has drifted
from the chemistry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, Tuple

import numpy as np

from repro.bayes.dilution import ResponseModel
from repro.bayes.priors import PriorSpec
from repro.metrics.reporting import format_table

__all__ = ["ModelEvidence", "replay_log_evidence", "format_comparison"]

TestTrail = Sequence[Tuple[int, Any]]  # (pool_mask, outcome) pairs


@dataclass(frozen=True)
class ModelEvidence:
    """One candidate model's score on an observed trail."""

    name: str
    log_evidence: float

    def bayes_factor_over(self, other: "ModelEvidence") -> float:
        """Linear-scale Bayes factor of self vs *other* (may overflow to inf)."""
        return float(np.exp(self.log_evidence - other.log_evidence))


def replay_log_evidence(
    prior: PriorSpec, model: ResponseModel, trail: TestTrail
) -> float:
    """Log marginal likelihood of an outcome trail under one model.

    Replays the exact Bayes updates the screen performed, but under
    *model*; the accumulated predictive log-probabilities are the log
    evidence.  The trail's pool masks are in original cohort indices.
    """
    from repro.sbgt.session import SBGTSession  # deferred: repro.sbgt imports bayes

    session = SBGTSession(None, prior, model)
    for pool_mask, outcome in trail:
        session.update(int(pool_mask), outcome)
    return session.log.log_evidence


def format_comparison(scored: Sequence[ModelEvidence]) -> str:
    """Render a comparison as a table with log Bayes factors vs the best."""
    if not scored:
        raise ValueError("nothing to format")
    best = scored[0]
    rows = [
        [m.name, m.log_evidence, f"{m.log_evidence - best.log_evidence:+.3f}"]
        for m in scored
    ]
    return format_table(
        ["model", "log evidence", "log BF vs best"],
        rows,
        title="Response-model comparison",
    )

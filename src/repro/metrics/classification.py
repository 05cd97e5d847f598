"""Classification quality against simulated ground truth."""

from __future__ import annotations

from dataclasses import dataclass

from repro.bayes.posterior import Classification, ClassificationReport

__all__ = ["ConfusionCounts", "evaluate_classification"]


@dataclass(frozen=True)
class ConfusionCounts:
    """Confusion matrix of a screen, with undetermined tracked separately.

    Sensitivity/specificity are computed over *determined* individuals;
    ``accuracy`` counts undetermined individuals as errors (the screen
    failed to resolve them), which is the conservative convention used
    in the experiment tables.
    """

    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int
    undetermined: int

    @property
    def n_items(self) -> int:
        return (
            self.true_positive
            + self.false_positive
            + self.true_negative
            + self.false_negative
            + self.undetermined
        )

    @property
    def sensitivity(self) -> float:
        denom = self.true_positive + self.false_negative
        return self.true_positive / denom if denom else 1.0

    @property
    def specificity(self) -> float:
        denom = self.true_negative + self.false_positive
        return self.true_negative / denom if denom else 1.0

    @property
    def accuracy(self) -> float:
        if self.n_items == 0:
            return 1.0
        return (self.true_positive + self.true_negative) / self.n_items


def evaluate_classification(report: ClassificationReport, truth_mask: int) -> ConfusionCounts:
    """Score a classification report against the hidden truth mask."""
    tp = fp = tn = fn = und = 0
    for i, status in enumerate(report.statuses):
        truly_positive = bool((int(truth_mask) >> i) & 1)
        if status is Classification.UNDETERMINED:
            und += 1
        elif status is Classification.POSITIVE:
            if truly_positive:
                tp += 1
            else:
                fp += 1
        else:
            if truly_positive:
                fn += 1
            else:
                tn += 1
    return ConfusionCounts(tp, fp, tn, fn, und)

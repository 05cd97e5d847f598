"""Per-screen options.

Every screen runs :class:`~repro.sbgt.stepper.ScreenStepper` on an
:class:`~repro.sbgt.session.SBGTSession`;
:class:`ScreenOptions` is the one bundle of tuning knobs
:meth:`~repro.sbgt.session.SBGTSession.run_screen` and the context-free
entry points of :mod:`repro.workflows.classify` accept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ScreenOptions"]


@dataclass(frozen=True)
class ScreenOptions:
    """Tuning knobs of one screen (they override the session's ``SBGTConfig``).

    Parameters
    ----------
    positive_threshold / negative_threshold:
        Marginal cut-offs that settle an individual.
    max_stages:
        Stage budget; a screen that exhausts it reports
        ``exhausted_budget=True`` with whatever is still undetermined.
    prune_epsilon:
        When positive, prune the posterior support to the ``1-ε`` core
        after each stage (``0`` = exact inference).
    track_entropy:
        Record entropy before/after each test (extra pass per update).
    """

    positive_threshold: float = 0.99
    negative_threshold: float = 0.01
    max_stages: int = 50
    prune_epsilon: float = 0.0
    track_entropy: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.negative_threshold < self.positive_threshold <= 1.0:
            raise ValueError("thresholds must satisfy 0 <= neg < pos <= 1")
        if self.max_stages < 1:
            raise ValueError("max_stages must be >= 1")
        if not 0.0 <= self.prune_epsilon < 1.0:
            raise ValueError("prune_epsilon must be in [0, 1)")

    def with_(self, **kwargs) -> "ScreenOptions":
        return replace(self, **kwargs)

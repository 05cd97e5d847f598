"""The :class:`StateSpace`: masks + log-probabilities.

Log space is used throughout: a sequential screen can apply dozens of
likelihood updates, and products of small sensitivities underflow float64
quickly in linear space.  Normalisation is a ``logsumexp`` away and only
done when a caller needs calibrated masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.util.bits import MAX_ITEMS
from repro.util.numerics import logsumexp

__all__ = ["StateSpace"]


@dataclass
class StateSpace:
    """A weighted family of infection states over ``n_items`` individuals.

    Attributes
    ----------
    n_items:
        Number of individuals (bit positions used), at most 64.
    masks:
        ``uint64`` array of states; bit ``i`` set = individual ``i``
        infected.  Must be duplicate-free (not re-checked in hot paths).
    log_probs:
        Unnormalised log-probability per state (same length as masks).
    """

    n_items: int
    masks: np.ndarray
    log_probs: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_items <= MAX_ITEMS:
            raise ValueError(f"n_items must be in [1, {MAX_ITEMS}]")
        self.masks = np.ascontiguousarray(self.masks, dtype=np.uint64)
        self.log_probs = np.ascontiguousarray(self.log_probs, dtype=np.float64)
        if self.masks.shape != self.log_probs.shape or self.masks.ndim != 1:
            raise ValueError("masks and log_probs must be 1-D arrays of equal length")
        if self.masks.size == 0:
            raise ValueError("a state space must contain at least one state")
        if self.n_items < MAX_ITEMS and np.any(self.masks >> np.uint64(self.n_items)):
            raise ValueError("mask uses bits beyond n_items")

    # ------------------------------------------------------------------
    @classmethod
    def dense(cls, n_items: int, log_probs: Optional[np.ndarray] = None) -> "StateSpace":
        """The full Boolean lattice 2^{n_items} (uniform if no weights)."""
        if not 1 <= n_items <= 30:
            raise ValueError("dense enumeration supported for n_items in [1, 30]")
        size = 1 << n_items
        masks = np.arange(size, dtype=np.uint64)
        if log_probs is None:
            log_probs = np.full(size, -np.log(size))
        return cls(n_items, masks, np.asarray(log_probs, dtype=np.float64))

    @classmethod
    def from_masks(
        cls, n_items: int, masks: Iterable[int], log_probs: Optional[np.ndarray] = None
    ) -> "StateSpace":
        m = np.asarray(list(masks) if not isinstance(masks, np.ndarray) else masks, dtype=np.uint64)
        if log_probs is None:
            log_probs = np.full(m.size, -np.log(max(m.size, 1)))
        return cls(n_items, m, np.asarray(log_probs, dtype=np.float64))

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of states currently represented."""
        return int(self.masks.size)

    @property
    def log_total_mass(self) -> float:
        """log Σ exp(log_probs) — 0.0 when normalised."""
        return logsumexp(self.log_probs)

    def probs(self) -> np.ndarray:
        """Normalised linear-space probabilities."""
        return np.exp(self.log_probs - self.log_total_mass)

    def copy(self) -> "StateSpace":
        return StateSpace(self.n_items, self.masks.copy(), self.log_probs.copy())

    def is_normalized(self, atol: float = 1e-9) -> bool:
        return abs(self.log_total_mass) <= atol

    # Convenience delegates (implementations live in repro.lattice.ops;
    # imported lazily to keep the dataclass import-light).
    def normalize(self) -> "StateSpace":
        from repro.lattice.ops import normalize_log_probs

        self.log_probs = normalize_log_probs(self.log_probs)
        return self

    def marginals(self) -> np.ndarray:
        from repro.lattice.ops import marginals

        return marginals(self)

    def entropy(self) -> float:
        from repro.lattice.ops import entropy

        return entropy(self)

    def map_state(self) -> int:
        from repro.lattice.ops import map_state

        return map_state(self)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StateSpace(n_items={self.n_items}, size={self.size})"

"""Cohort index bookkeeping for lattice contraction.

When settled individuals are projected out of a lattice, the remaining
bits compact downward, but callers keep speaking original cohort
indices.  :class:`CohortIndexMap` owns that translation for
:class:`~repro.sbgt.session.SBGTSession`, whatever its backend.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.util.bits import as_mask_array, indices_from_mask

__all__ = ["CohortIndexMap"]


class CohortIndexMap:
    """Tracks live (in-lattice) vs settled (projected-out) individuals."""

    def __init__(self, n_items: int) -> None:
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        self.n_items = int(n_items)
        self._live: List[int] = list(range(n_items))
        self._settled: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    @property
    def live(self) -> List[int]:
        """Original indices still represented, in compact-bit order."""
        return list(self._live)

    @property
    def num_live(self) -> int:
        return len(self._live)

    @property
    def settled(self) -> Dict[int, bool]:
        """Original index → committed diagnosis (True = positive)."""
        return dict(self._settled)

    @property
    def any_settled(self) -> bool:
        return bool(self._settled)

    def is_settled(self, individual: int) -> bool:
        return individual in self._settled

    def compact_position(self, individual: int) -> int:
        """Current lattice bit of a live individual."""
        try:
            return self._live.index(individual)
        except ValueError:
            raise ValueError(f"individual {individual} is not live") from None

    # ------------------------------------------------------------------
    def settle(self, individual: int, as_positive: bool) -> int:
        """Mark *individual* settled; returns the compact bit removed.

        The caller must project that bit out of its lattice *before*
        issuing further translations.
        """
        if individual in self._settled:
            raise ValueError(f"individual {individual} already settled")
        pos = self.compact_position(individual)
        self._live.pop(pos)
        self._settled[individual] = bool(as_positive)
        return pos

    # ------------------------------------------------------------------
    def to_compact_mask(self, original_mask: int) -> int:
        """Translate an original-index mask into compact lattice bits.

        A bit at or above ``n_items`` names no one in the cohort and
        raises ``ValueError``, settled or not.
        """
        original_mask = int(original_mask)
        if original_mask >> self.n_items:
            raise ValueError(
                f"pool mask selects bit {original_mask.bit_length() - 1} outside cohort"
            )
        if not self._settled:
            return original_mask
        position = {orig: i for i, orig in enumerate(self._live)}
        out = 0
        for orig in indices_from_mask(original_mask):
            if orig in self._settled:
                raise ValueError(
                    f"individual {orig} is already settled and projected out"
                )
            out |= 1 << position[orig]
        return out

    def to_compact_masks(self, original_masks) -> np.ndarray:
        """:meth:`to_compact_mask` over a whole table of pool masks.

        The table itself (as an array) while nothing is settled — the
        every-stage case of a screen that does not contract.
        """
        if not self._settled:
            return np.asarray(original_masks)
        return as_mask_array(self.to_compact_mask(int(m)) for m in original_masks)

    def to_original_mask(self, compact_mask: int) -> int:
        """Translate compact lattice bits back to original indices."""
        if not self._settled:
            return int(compact_mask)
        out = 0
        for pos in indices_from_mask(int(compact_mask)):
            out |= 1 << self._live[pos]
        return out

    def settled_positive_mask(self) -> int:
        """Original-index mask of every settled-positive individual."""
        mask = 0
        for orig, positive in self._settled.items():
            if positive:
                mask |= 1 << orig
        return mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CohortIndexMap(n_items={self.n_items}, live={len(self._live)}, "
            f"settled={len(self._settled)})"
        )

"""Lattice persistence: checkpoint a session's belief state to ``.npz``.

A long surveillance screen is interruptible work: results arrive over
hours and the program must survive restarts.  A checkpoint holds the
lattice (masks + log-probs + n_items) and the evidence trail, so a
resumed session reports the complete test history.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Tuple, Union

import numpy as np

from repro.lattice.states import StateSpace

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a lattice↔bayes/sbgt cycle)
    from repro.bayes.evidence import EvidenceLog
    from repro.sbgt.session import SBGTSession

__all__ = ["save_posterior", "load_posterior"]

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def save_posterior(session: "SBGTSession", path: PathLike) -> None:
    """Checkpoint a session's belief state: lattice + evidence trail.

    The response model is configuration, not state — the loader's caller
    supplies it, so checkpoints stay valid across code upgrades of the
    model classes.  Contracted (settled) individuals are not supported:
    checkpoint before enabling contraction or settle after restore.
    """
    if session._index.any_settled:
        raise ValueError("checkpointing a contracted session is not supported")
    space = session.lattice.collect()
    trail = [
        {
            "stage": r.stage,
            "pool_mask": int(r.pool_mask),
            "pool_size": r.pool_size,
            "outcome": r.outcome if isinstance(r.outcome, bool) else float(r.outcome),
            "log_predictive": r.log_predictive,
            "entropy_before": r.entropy_before,
            "entropy_after": r.entropy_after,
        }
        for r in session.log.records
    ]
    np.savez_compressed(
        Path(path),
        version=np.int64(_FORMAT_VERSION),
        n_items=np.int64(space.n_items),
        masks=space.masks,
        log_probs=space.log_probs,
        stage=np.int64(session._stage),
        track_entropy=np.bool_(session.config.track_entropy),
        trail_json=np.bytes_(json.dumps(trail).encode()),
    )


def load_posterior(path: PathLike) -> Tuple[StateSpace, int, bool, "EvidenceLog"]:
    """Read a checkpoint back as ``(lattice, stage, track_entropy, evidence log)``."""
    from repro.bayes.evidence import EvidenceLog, TestRecord

    with np.load(Path(path)) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        space = StateSpace(
            int(data["n_items"]), data["masks"].copy(), data["log_probs"].copy()
        )
        log = EvidenceLog()
        for rec in json.loads(bytes(data["trail_json"]).decode()):
            log.append(TestRecord(**rec))
        return space, int(data["stage"]), bool(data["track_entropy"]), log

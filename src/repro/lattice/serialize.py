"""Lattice persistence: save/load state spaces and posteriors.

A long surveillance screen is interruptible work: results arrive over
hours and the program must survive restarts.  State spaces serialize to
NumPy's ``.npz`` (masks + log-probs + n_items); a posterior checkpoint
additionally carries its evidence trail so a resumed session reports the
complete test history.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.lattice.states import StateSpace

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids lattice↔bayes cycle)
    from repro.bayes.dilution import ResponseModel
    from repro.bayes.posterior import Posterior

__all__ = ["save_posterior", "load_posterior"]

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def save_posterior(posterior: "Posterior", path: PathLike) -> None:
    """Checkpoint a posterior: lattice + evidence trail (not the model).

    The response model is configuration, not state — the loader takes it
    as an argument, so checkpoints stay valid across code upgrades of
    the model classes.  Contracted (settled) individuals are not yet
    supported: checkpoint before enabling contraction or settle after
    restore.
    """
    if posterior._index.any_settled:
        raise ValueError("checkpointing a contracted posterior is not supported")
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
        for r in posterior.log.records
    ]
    np.savez_compressed(
        Path(path),
        version=np.int64(_FORMAT_VERSION),
        n_items=np.int64(posterior.space.n_items),
        masks=posterior.space.masks,
        log_probs=posterior.space.log_probs,
        stage=np.int64(posterior._stage),
        track_entropy=np.bool_(posterior.track_entropy),
        trail_json=np.bytes_(json.dumps(trail).encode()),
    )


def load_posterior(path: PathLike, model: "ResponseModel") -> "Posterior":
    """Restore a checkpointed posterior against the given response model."""
    from repro.bayes.evidence import TestRecord
    from repro.bayes.posterior import Posterior

    with np.load(Path(path)) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        space = StateSpace(
            int(data["n_items"]), data["masks"].copy(), data["log_probs"].copy()
        )
        posterior = Posterior(space, model, track_entropy=bool(data["track_entropy"]))
        posterior._stage = int(data["stage"])
        for rec in json.loads(bytes(data["trail_json"]).decode()):
            posterior.log.append(
                TestRecord(
                    stage=rec["stage"],
                    pool_mask=rec["pool_mask"],
                    pool_size=rec["pool_size"],
                    outcome=rec["outcome"],
                    log_predictive=rec["log_predictive"],
                    entropy_before=rec["entropy_before"],
                    entropy_after=rec["entropy_after"],
                )
            )
    return posterior

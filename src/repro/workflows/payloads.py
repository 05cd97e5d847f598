"""JSON payload shapes shared by the CLI and the serving layer.

``python -m repro screen --json`` / ``calculator --json`` and the
corresponding ``repro serve`` endpoints emit the **same** payloads, so a
CLI run and a server response are directly diffable.  Everything here is
plain-JSON-serializable (no NumPy scalars) and deterministic given the
request parameters and seed.

Also home to the string factories the CLI and server share:
:func:`make_policy` parses the policy mini-language (``bha``,
``lookahead-2``, ``dorfman-4``, ``array-3x4``, ``hybrid-6``, …) and
:func:`make_model` builds a response model from assay parameters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence

from repro.bayes.dilution import (
    BinaryErrorModel,
    DilutionErrorModel,
    PerfectTest,
    ResponseModel,
)
from repro.halving.hybrid import HybridPolicy
from repro.halving.policy import (
    ArrayTestingPolicy,
    BHAPolicy,
    DorfmanPolicy,
    IndividualTestingPolicy,
    InformationGainPolicy,
    LookaheadPolicy,
    SelectionPolicy,
)
from repro.workflows.calculator import CalculatorEntry
from repro.workflows.classify import ScreenResult

if TYPE_CHECKING:  # pragma: no cover - repro.sbgt imports this module back
    from repro.sbgt.config import SBGTConfig

__all__ = [
    "make_policy",
    "make_model",
    "make_posterior",
    "canonical_json",
    "request_digest",
    "screen_payload",
    "calculator_payload",
    "calculator_entry_dict",
    "surveil_payload",
    "dump_payload",
]

POLICY_HELP = "bha, lookahead-2, infogain, dorfman-4, array-3x4, hybrid, individual"
BACKEND_HELP = "dense, sparse, particle"


def make_policy(name: str) -> SelectionPolicy:
    """Build a selection policy from its CLI/API spelling.

    Raises :class:`ValueError` for an unknown spec (callers map this to
    an argparse error or an HTTP 400 as appropriate).
    """
    try:
        if name == "bha":
            return BHAPolicy()
        if name.startswith("lookahead-"):
            return LookaheadPolicy(int(name.split("-", 1)[1]))
        if name == "infogain":
            return InformationGainPolicy()
        if name.startswith("dorfman-"):
            return DorfmanPolicy(int(name.split("-", 1)[1]))
        if name.startswith("array-"):
            rows, cols = name.split("-", 1)[1].split("x")
            return ArrayTestingPolicy(int(rows), int(cols))
        if name == "hybrid":
            return HybridPolicy()
        if name.startswith("hybrid-"):
            return HybridPolicy(int(name.split("-", 1)[1]))
        if name == "individual":
            return IndividualTestingPolicy()
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed policy spec {name!r} (try: {POLICY_HELP})") from exc
    raise ValueError(f"unknown policy {name!r} (try: {POLICY_HELP})")


def make_model(
    assay: str = "dilution",
    sensitivity: float = 0.98,
    specificity: float = 0.995,
    dilution: float = 0.3,
) -> ResponseModel:
    """Build a response model from flat assay parameters."""
    if assay == "perfect":
        return PerfectTest()
    if assay == "binary":
        return BinaryErrorModel(sensitivity, specificity)
    if assay == "dilution":
        return DilutionErrorModel(sensitivity, specificity, dilution)
    raise ValueError(f"unknown assay {assay!r} (choose perfect, binary, dilution)")


def make_posterior(prior, ctx=None, config: Optional["SBGTConfig"] = None):
    """Build the :class:`~repro.sbgt.backend.PosteriorBackend` *config* names.

    The posterior twin of :func:`make_policy` / :func:`make_model`.
    ``config.backend`` ``"dense"`` is the exact lattice — distributed
    over *ctx*, or one driver-resident block when *ctx* is None —
    ``"sparse"`` the driver-resident above-floor representation,
    ``"particle"`` the SMC cloud; the backend reads its own fields of
    *config* (``SBGTConfig()`` when omitted).  Every returned backend
    carries a ``log_discarded_prior`` attribute (−inf when the support
    is exact).
    """
    # Deferred imports: repro.sbgt pulls this module back in for the
    # session's backend dispatch.
    from repro.sbgt.config import SBGTConfig

    config = config or SBGTConfig()
    if config.backend == "dense":
        from repro.sbgt.distributed_lattice import DistributedLattice

        if config.max_positives is not None:
            return DistributedLattice.from_restricted_prior(
                ctx, prior, config.max_positives, config.num_blocks
            )
        return DistributedLattice.from_prior(ctx, prior, config.num_blocks)
    if config.backend == "sparse":
        from repro.sbgt.sparse import SparsePosterior

        return SparsePosterior.from_prior(
            prior,
            floor=config.sparse_floor,
            max_states=config.max_states,
            max_positives=config.max_positives,
        )
    from repro.sbgt.particle import ParticlePosterior

    return ParticlePosterior(
        prior,
        num_particles=config.num_particles,
        rng=config.backend_seed,
        ess_threshold=config.ess_threshold,
    )


# ----------------------------------------------------------------------
# canonical hashing (the result cache / micro-batcher coalescing key)
# ----------------------------------------------------------------------
def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace jitter."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def request_digest(kind: str, params: Mapping[str, Any]) -> str:
    """Canonical request hash — equal requests collide by construction."""
    text = kind + "\n" + canonical_json(dict(params))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# payload builders
# ----------------------------------------------------------------------
def _py(value: Any) -> Any:
    """NumPy scalar → native (json round-trips floats via repr exactly)."""
    if hasattr(value, "item"):
        return value.item()
    return value


def screen_payload(
    result: ScreenResult,
    request: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The one-shot screen payload (CLI ``--json`` == server body)."""
    summary = {k: _py(v) for k, v in result.summary().items()}
    return {
        "kind": "screen",
        "request": dict(request or {}),
        "summary": summary,
        "classification": {
            "statuses": [s.name.lower() for s in result.report.statuses],
            "marginals": [float(m) for m in result.report.marginals],
        },
        "truth": {
            "mask": int(result.cohort.truth_mask),
            "positives": result.cohort.positives(),
        },
    }


def calculator_entry_dict(entry: CalculatorEntry) -> Dict[str, Any]:
    row = {k: _py(v) for k, v in dataclasses.asdict(entry).items()}
    row["expected_savings"] = float(entry.expected_savings)
    row["verdict"] = "pool" if entry.pooling_recommended else "individual"
    return row


def calculator_payload(
    entries: Sequence[CalculatorEntry],
    request: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The decision-table payload (CLI ``--json`` == server body)."""
    return {
        "kind": "calculator",
        "request": dict(request or {}),
        "entries": [calculator_entry_dict(e) for e in entries],
    }


def surveil_payload(
    result,
    request: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The multi-site campaign payload (CLI ``--json`` == server body).

    *result* is a :class:`~repro.surveil.campaign.CampaignResult`.
    Deterministic given the request parameters and seed: wall-clock
    times are deliberately excluded (see ``CampaignResult.round_rows``).
    """
    return {
        "kind": "surveil",
        "request": dict(request or {}),
        "summary": {k: _py(v) for k, v in result.summary().items()},
        "sites": result.sites,
        "rounds": result.round_rows(),
    }


def dump_payload(payload: Mapping[str, Any]) -> str:
    """The exact wire/stdout text both emitters use (diff-stable)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

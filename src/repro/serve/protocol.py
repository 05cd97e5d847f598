"""Request parsing and serialization for the serving layer.

Each endpoint's JSON body parses into a frozen request dataclass that
validates eagerly (:class:`BadRequest` maps to HTTP 400), normalizes
into a canonical parameter dict (the echo in responses, and the input
to the result-cache / micro-batcher key), and knows how to *execute*
itself against the workflow layer.  The CLI's computing verbs put their
flags into a body and parse it with the same ``from_payload``, which is
what makes ``--json`` output and server responses byte-identical and the
CLI's bounds the server's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.bayes.dilution import ResponseModel
from repro.bayes.priors import PriorSpec
from repro.halving.policy import SelectionPolicy
from repro.sbgt.config import SBGTConfig
from repro.simulate.scenario import SCENARIOS, get_scenario
from repro.workflows.payloads import (
    BACKEND_HELP,
    calculator_payload,
    make_model,
    make_policy,
    request_digest,
    screen_payload,
)

__all__ = [
    "BadRequest",
    "AssaySpec",
    "CalculatorRequest",
    "ScreenRequest",
    "SessionCreateRequest",
    "SurveilRequest",
    "MAX_COHORT",
    "MAX_COHORT_APPROX",
    "MAX_SITES",
]

#: Fleet-size ceiling for one surveillance campaign request.
MAX_SITES = 64

#: Dense-lattice cohort ceiling.
MAX_COHORT = 24

#: Cohort ceiling for the approximate (sparse/particle) backends, which
#: never materialize the 2^N lattice.
MAX_COHORT_APPROX = 1024


class BadRequest(ValueError):
    """Client-side request error (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRequest(message)


def _get_int(payload: Mapping[str, Any], key: str, default: int) -> int:
    value = payload.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{key} must be an integer")
    return value


def _get_float(payload: Mapping[str, Any], key: str, default: float) -> float:
    value = payload.get(key, default)
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{key} must be a number")
    return float(value)


def _get_bool(payload: Mapping[str, Any], key: str, default: bool) -> bool:
    value = payload.get(key, default)
    _require(isinstance(value, bool), f"{key} must be a boolean")
    return value


def _check_keys(payload: Mapping[str, Any], allowed: frozenset, what: str) -> None:
    unknown = sorted(set(payload) - allowed)
    _require(not unknown, f"unknown {what} field(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class AssaySpec:
    """Flat assay parameters (the CLI's ``--assay`` flags)."""

    assay: str = "dilution"
    sensitivity: float = 0.98
    specificity: float = 0.995
    dilution: float = 0.3

    _FIELDS = frozenset({"assay", "sensitivity", "specificity", "dilution"})

    @classmethod
    def from_payload(cls, payload: Optional[Mapping[str, Any]]) -> "AssaySpec":
        if payload is None:
            return cls()
        _require(isinstance(payload, Mapping), "assay must be an object")
        _check_keys(payload, cls._FIELDS, "assay")
        assay = payload.get("assay", "dilution")
        _require(assay in ("perfect", "binary", "dilution"),
                 "assay must be one of: perfect, binary, dilution")
        spec = cls(
            assay=assay,
            sensitivity=_get_float(payload, "sensitivity", 0.98),
            specificity=_get_float(payload, "specificity", 0.995),
            dilution=_get_float(payload, "dilution", 0.3),
        )
        _require(0.5 < spec.sensitivity <= 1.0, "sensitivity must be in (0.5, 1]")
        _require(0.5 < spec.specificity <= 1.0, "specificity must be in (0.5, 1]")
        _require(0.0 <= spec.dilution <= 1.0, "dilution must be in [0, 1]")
        return spec

    def build(self) -> ResponseModel:
        return make_model(self.assay, self.sensitivity, self.specificity, self.dilution)

    def canonical(self) -> Dict[str, Any]:
        return {
            "assay": self.assay,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "dilution": self.dilution,
        }


def _check_policy(name: Any) -> str:
    _require(isinstance(name, str), "policy must be a string")
    try:
        make_policy(name)
    except ValueError as exc:
        raise BadRequest(str(exc)) from None
    return name


def _check_backend(name: Any) -> str:
    _require(isinstance(name, str), "backend must be a string")
    _require(name in ("dense", "sparse", "particle"),
             f"unknown posterior backend {name!r} (try: {BACKEND_HELP})")
    return name


def _check_cohort(cohort: int, backend: str) -> int:
    limit = MAX_COHORT if backend == "dense" else MAX_COHORT_APPROX
    hint = "dense lattice" if backend == "dense" else f"{backend} backend"
    _require(1 <= cohort <= limit, f"cohort must be in [1, {limit}] ({hint})")
    return cohort


@dataclass(frozen=True)
class CalculatorRequest:
    """``POST /calculator`` — the pool/don't-pool decision table."""

    cohort: int = 12
    prevalences: Tuple[float, ...] = (0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.30)
    replications: int = 15
    policy: str = "bha"
    seed: int = 0
    backend: str = "dense"
    assay: AssaySpec = AssaySpec()

    _FIELDS = frozenset(
        {"cohort", "prevalences", "replications", "policy", "seed", "backend", "assay"}
    )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "CalculatorRequest":
        _require(isinstance(payload, Mapping), "request body must be a JSON object")
        _check_keys(payload, cls._FIELDS, "calculator")
        backend = _check_backend(payload.get("backend", "dense"))
        cohort = _check_cohort(_get_int(payload, "cohort", 12), backend)
        prevalences = payload.get("prevalences", list(cls().prevalences))
        _require(
            isinstance(prevalences, (list, tuple)) and len(prevalences) > 0,
            "prevalences must be a non-empty array",
        )
        _require(
            all(isinstance(p, (int, float)) and not isinstance(p, bool)
                and 0.0 < float(p) < 1.0 for p in prevalences),
            "every prevalence must be a number in (0, 1)",
        )
        _require(len(prevalences) <= 32, "at most 32 prevalence levels per request")
        replications = _get_int(payload, "replications", 15)
        _require(1 <= replications <= 200, "replications must be in [1, 200]")
        return cls(
            cohort=cohort,
            prevalences=tuple(float(p) for p in prevalences),
            replications=replications,
            policy=_check_policy(payload.get("policy", "bha")),
            seed=_get_int(payload, "seed", 0),
            backend=backend,
            assay=AssaySpec.from_payload(payload.get("assay")),
        )

    def canonical(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "cohort": self.cohort,
            "prevalences": list(self.prevalences),
            "replications": self.replications,
            "policy": self.policy,
            "seed": self.seed,
            "assay": self.assay.canonical(),
        }
        # Keep the dense default byte-identical to pre-backend payloads.
        if self.backend != "dense":
            out["backend"] = self.backend
        return out

    def key(self) -> str:
        return request_digest("calculator", self.canonical())

    def execute(self) -> Dict[str, Any]:
        """Run the Monte-Carlo table (serial path; no engine context)."""
        from repro.workflows.calculator import pooling_calculator

        model = self.assay.build()
        policy_name = self.policy
        entries = pooling_calculator(
            model,
            lambda: make_policy(policy_name),
            prevalences=self.prevalences,
            cohort_size=self.cohort,
            replications=self.replications,
            rng=self.seed,
            backend=self.backend,
        )
        return calculator_payload(entries, request=self.canonical())


def _scenario_field(payload: Mapping[str, Any]) -> Optional[str]:
    scenario = payload.get("scenario")
    if scenario is None:
        return None
    _require(isinstance(scenario, str) and scenario in SCENARIOS,
             f"scenario must be one of: {', '.join(sorted(SCENARIOS))}")
    return scenario


@dataclass(frozen=True)
class _ScreenFields:
    """The nine fields of a screen, their parse, echo and build — shared by
    :class:`ScreenRequest` and :class:`SessionCreateRequest`, whose
    ``_EXTRA`` fields are :class:`~repro.sbgt.config.SBGTConfig` fields
    of the same name."""

    cohort: int = 16
    prevalence: float = 0.02
    scenario: Optional[str] = None
    policy: str = "bha"
    seed: int = 0
    max_stages: int = 60
    compact: bool = False
    backend: str = "dense"
    assay: AssaySpec = AssaySpec()

    _FIELDS = frozenset(
        {"cohort", "prevalence", "scenario", "policy", "seed", "max_stages",
         "compact", "backend", "assay"}
    )
    _EXTRA = ()
    _WHAT = "screen"

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]):
        _require(isinstance(payload, Mapping), "request body must be a JSON object")
        _check_keys(payload, cls._FIELDS | frozenset(cls._EXTRA), cls._WHAT)
        backend = _check_backend(payload.get("backend", "dense"))
        cohort = _check_cohort(_get_int(payload, "cohort", 16), backend)
        prevalence = _get_float(payload, "prevalence", 0.02)
        _require(0.0 < prevalence < 1.0, "prevalence must be in (0, 1)")
        max_stages = _get_int(payload, "max_stages", 60)
        _require(1 <= max_stages <= 500, "max_stages must be in [1, 500]")
        extra = cls._parse_extra(payload)
        return cls(
            cohort=cohort,
            prevalence=prevalence,
            scenario=_scenario_field(payload),
            policy=_check_policy(payload.get("policy", "bha")),
            seed=_get_int(payload, "seed", 0),
            max_stages=max_stages,
            compact=_get_bool(payload, "compact", False),
            backend=backend,
            assay=AssaySpec.from_payload(payload.get("assay")),
            **extra,
        )

    @classmethod
    def _parse_extra(cls, payload: Mapping[str, Any]) -> Dict[str, Any]:
        return {}

    def canonical(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "cohort": self.cohort,
            "policy": self.policy,
            "seed": self.seed,
            "max_stages": self.max_stages,
            "compact": self.compact,
            **{name: getattr(self, name) for name in self._EXTRA},
        }
        # Keep the dense default byte-identical to pre-backend payloads.
        if self.backend != "dense":
            out["backend"] = self.backend
        if self.scenario is not None:
            out["scenario"] = self.scenario
        else:
            out["prevalence"] = self.prevalence
            out["assay"] = self.assay.canonical()
        return out

    def build(self) -> Tuple[PriorSpec, ResponseModel, SelectionPolicy, SBGTConfig]:
        """(prior, model, policy, config) of the screen."""
        if self.scenario is not None:
            prior, model = get_scenario(self.scenario).build(self.cohort, rng=self.seed)
        else:
            prior = PriorSpec.uniform(self.cohort, self.prevalence)
            model = self.assay.build()
        policy = make_policy(self.policy)
        config = SBGTConfig(max_stages=self.max_stages,
                            compact_classified=self.compact,
                            backend=self.backend,
                            **{name: getattr(self, name) for name in self._EXTRA})
        return prior, model, policy, config


@dataclass(frozen=True)
class ScreenRequest(_ScreenFields):
    """``POST /screen`` — one-shot cohort classification."""

    def key(self) -> str:
        return request_digest("screen", self.canonical())

    def execute(self, ctx) -> Dict[str, Any]:
        """Run the screen: on the shared engine context for the dense
        backend, driver-local for the approximate backends (*ctx* may
        then be ``None``)."""
        from repro.sbgt.session import SBGTSession

        prior, model, policy, config = self.build()
        session = SBGTSession(ctx, prior, model, config)
        try:
            result = session.run_screen(policy, rng=self.seed)
        finally:
            session.close()
        return screen_payload(result, request=self.canonical())


def _check_allocator(name: Any) -> str:
    _require(isinstance(name, str), "allocator must be a string")
    from repro.surveil.allocator import make_allocator

    try:
        make_allocator(name)
    except ValueError as exc:
        raise BadRequest(str(exc)) from None
    return name


def _check_fleet(name: Any) -> str:
    from repro.surveil.sites import FLEET_KINDS

    _require(isinstance(name, str) and name in FLEET_KINDS,
             f"fleet must be one of: {', '.join(FLEET_KINDS)}")
    return name


@dataclass(frozen=True)
class SurveilRequest:
    """``POST /surveil`` — a whole multi-site surveillance campaign.

    Builds a seeded fleet, runs the round loop to completion, and
    returns the campaign payload.  The same dataclass backs
    ``python -m repro surveil --json`` and the campaign session API
    (``POST /campaigns``), so bodies stay byte-identical across entry
    points.
    """

    sites: int = 6
    cohort: int = 10
    rounds: int = 8
    budget: int = 6
    allocator: str = "thompson"
    policy: str = "bha"
    fleet: str = "heterogeneous"
    seed: int = 0
    max_stages: int = 40
    backend: str = "dense"
    assay: AssaySpec = AssaySpec(assay="binary")

    _FIELDS = frozenset(
        {"sites", "cohort", "rounds", "budget", "allocator", "policy", "fleet",
         "seed", "max_stages", "backend", "assay"}
    )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SurveilRequest":
        _require(isinstance(payload, Mapping), "request body must be a JSON object")
        _check_keys(payload, cls._FIELDS, "surveil")
        backend = _check_backend(payload.get("backend", "dense"))
        fleet = _check_fleet(payload.get("fleet", "heterogeneous"))
        sites = _get_int(payload, "sites", 6)
        _require(1 <= sites <= MAX_SITES, f"sites must be in [1, {MAX_SITES}]")
        cohort = _check_cohort(_get_int(payload, "cohort", 10), backend)
        if fleet == "household":
            _require(backend == "dense",
                     "household fleets need the dense backend (correlated prior)")
            _require(cohort % 3 == 0 and cohort <= MAX_COHORT,
                     f"household fleets need cohort a multiple of 3, <= {MAX_COHORT}")
        rounds = _get_int(payload, "rounds", 8)
        _require(1 <= rounds <= 200, "rounds must be in [1, 200]")
        budget = _get_int(payload, "budget", 6)
        _require(1 <= budget <= 128, "budget must be in [1, 128]")
        max_stages = _get_int(payload, "max_stages", 40)
        _require(1 <= max_stages <= 500, "max_stages must be in [1, 500]")
        assay = (AssaySpec.from_payload(payload["assay"]) if "assay" in payload
                 else AssaySpec(assay="binary"))
        return cls(
            sites=sites,
            cohort=cohort,
            rounds=rounds,
            budget=budget,
            allocator=_check_allocator(payload.get("allocator", "thompson")),
            policy=_check_policy(payload.get("policy", "bha")),
            fleet=fleet,
            seed=_get_int(payload, "seed", 0),
            max_stages=max_stages,
            backend=backend,
            assay=assay,
        )

    def canonical(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "sites": self.sites,
            "cohort": self.cohort,
            "rounds": self.rounds,
            "budget": self.budget,
            "allocator": self.allocator,
            "policy": self.policy,
            "fleet": self.fleet,
            "seed": self.seed,
            "max_stages": self.max_stages,
            "assay": self.assay.canonical(),
        }
        # Keep the dense default byte-identical across request kinds.
        if self.backend != "dense":
            out["backend"] = self.backend
        return out

    def key(self) -> str:
        return request_digest("surveil", self.canonical())

    def build_fleet(self):
        """The seeded :class:`~repro.surveil.sites.SiteSpec` tuple."""
        from repro.surveil.sites import make_fleet

        a = self.assay
        if self.fleet == "household":
            overrides = {"sensitivity": a.sensitivity, "specificity": a.specificity}
        else:
            overrides = {
                "assay": a.assay,
                "sensitivity": a.sensitivity,
                "specificity": a.specificity,
                "dilution": a.dilution,
            }
        return make_fleet(self.fleet, self.sites, self.cohort, self.seed, **overrides)

    def build_campaign(self, ctx):
        """A fresh :class:`~repro.surveil.campaign.Campaign` (shared by
        the one-shot endpoint, the session API, and the CLI)."""
        from repro.surveil.campaign import Campaign, CampaignConfig

        config = CampaignConfig(
            rounds=self.rounds,
            budget=self.budget,
            allocator=self.allocator,
            policy=self.policy,
            backend=self.backend,
            max_stages=self.max_stages,
            seed=self.seed,
        )
        return Campaign(self.build_fleet(), config, ctx=ctx)

    def execute(self, ctx) -> Dict[str, Any]:
        """Run the whole campaign; *ctx* may be ``None`` (serial screens)."""
        from repro.workflows.payloads import surveil_payload

        return surveil_payload(self.build_campaign(ctx).run(), request=self.canonical())


@dataclass(frozen=True)
class SessionCreateRequest(_ScreenFields):
    """``POST /sessions`` — start an interactive sequential screen.

    The server holds the belief state and proposes pools; the client
    owns the physical assays (or their simulation) and posts outcomes.
    """

    positive_threshold: float = 0.99
    negative_threshold: float = 0.01

    _EXTRA = ("positive_threshold", "negative_threshold")
    _WHAT = "session"

    @classmethod
    def _parse_extra(cls, payload: Mapping[str, Any]) -> Dict[str, Any]:
        pos = _get_float(payload, "positive_threshold", 0.99)
        neg = _get_float(payload, "negative_threshold", 0.01)
        _require(0.0 <= neg < pos <= 1.0,
                 "thresholds must satisfy 0 <= negative < positive <= 1")
        return {"positive_threshold": pos, "negative_threshold": neg}

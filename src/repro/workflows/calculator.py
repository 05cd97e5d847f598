"""The pooling calculator (Monte-Carlo analogue of the paper's web tool).

The Biostatistics'22 companion introduced a web calculator that weighs
group-testing savings against extra stages and variability under given
prevalence and assay conditions.  :func:`pooling_calculator` reproduces
its decision table by simulation: for each prevalence it replicates
screens and reports expected tests per individual, expected stages,
their variability, and accuracy — the inputs to a pool/don't-pool call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Sequence

import numpy as np

from repro.bayes.dilution import ResponseModel
from repro.bayes.priors import PriorSpec
from repro.halving.policy import SelectionPolicy
from repro.metrics.reporting import format_table
from repro.sbgt.config import SBGTConfig
from repro.util.rng import RngLike, as_rng
from repro.workflows.classify import run_screen

__all__ = ["CalculatorEntry", "pooling_calculator", "format_calculator_table"]


@dataclass(frozen=True)
class CalculatorEntry:
    """Monte-Carlo summary for one prevalence level."""

    prevalence: float
    cohort_size: int
    replications: int
    mean_tests_per_individual: float
    std_tests_per_individual: float
    mean_stages: float
    std_stages: float
    mean_accuracy: float

    @property
    def expected_savings(self) -> float:
        """Fraction of tests saved vs individual testing (may be < 0)."""
        return 1.0 - self.mean_tests_per_individual

    @property
    def pooling_recommended(self) -> bool:
        """The calculator's verdict: does pooling save tests here?"""
        return self.expected_savings > 0.0


def pooling_calculator(
    model: ResponseModel,
    policy_factory: Callable[[], SelectionPolicy],
    prevalences: Sequence[float],
    cohort_size: int = 12,
    replications: int = 20,
    rng: RngLike = None,
    max_stages: int = 50,
    positive_threshold: float = 0.99,
    backend: str = "dense",
) -> List[CalculatorEntry]:
    """Tabulate expected cost/quality per prevalence level.

    The negative (clearance) threshold adapts to each prevalence: it is
    set a decade below the prior risk (capped at 1%), so a cohort is
    never "cleared" by its prior alone — evidence from at least one
    pooled test is always required.

    ``backend`` picks the posterior representation per replication:
    ``"dense"`` runs the exact driver-resident lattice; ``"sparse"`` /
    ``"particle"`` run driver-local approximate screens, which is what
    makes cohorts beyond the dense 2^N wall tabulable.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    gen = as_rng(rng)
    entries: List[CalculatorEntry] = []
    for prev in prevalences:
        prior = PriorSpec.uniform(cohort_size, float(prev))
        config = SBGTConfig(
            backend=backend,
            max_stages=max_stages,
            positive_threshold=positive_threshold,
            negative_threshold=min(0.01, float(prev) / 10.0),
        )
        tpis, stages, accs = [], [], []
        for _ in range(replications):
            res = run_screen(prior, model, policy_factory(), gen, config=config)
            tpis.append(res.tests_per_individual)
            stages.append(res.stages_used)
            accs.append(res.accuracy)
        entries.append(
            CalculatorEntry(
                prevalence=float(prev),
                cohort_size=cohort_size,
                replications=replications,
                mean_tests_per_individual=float(np.mean(tpis)),
                std_tests_per_individual=float(np.std(tpis)),
                mean_stages=float(np.mean(stages)),
                std_stages=float(np.std(stages)),
                mean_accuracy=float(np.mean(accs)),
            )
        )
    return entries


def format_calculator_table(entries: Sequence[Mapping[str, Any]]) -> str:
    """Render a calculator payload's ``entries`` as the decision table."""
    rows = [
        [
            f"{e['prevalence']:.1%}",
            e["mean_tests_per_individual"],
            e["std_tests_per_individual"],
            e["mean_stages"],
            e["mean_accuracy"],
            e["verdict"],
        ]
        for e in entries
    ]
    return format_table(
        ["prevalence", "tests/indiv", "±sd", "stages", "accuracy", "verdict"],
        rows,
        title="Pooling calculator",
    )

"""The Bayesian group-testing model (Biostatistics'22 statistical core).

Priors over infection states, pooled-test response models with dilution
effects (binary and continuous), classification read-outs of posterior
marginals, and evidence tracking.  The belief state itself is
:class:`repro.sbgt.SBGTSession` (``Posterior.from_prior`` builds a
context-free one).
"""

from repro.bayes.priors import PriorSpec
from repro.bayes.dilution import (
    ResponseModel,
    PerfectTest,
    BinaryErrorModel,
    DilutionErrorModel,
    LogNormalViralLoadModel,
)
from repro.bayes.posterior import (
    Posterior,
    Classification,
    ClassificationReport,
    classify_marginals,
)
from repro.bayes.evidence import EvidenceLog, TestRecord
from repro.bayes.correlated import HouseholdPrior, pairwise_correlation
from repro.bayes.indexmap import CohortIndexMap
from repro.bayes.model_selection import (
    ModelEvidence,
    replay_log_evidence,
)
from repro.bayes.prevalence import (
    PrevalencePosterior,
    estimate_prevalence,
    pool_positive_prob,
)

__all__ = [
    "PriorSpec",
    "ResponseModel",
    "PerfectTest",
    "BinaryErrorModel",
    "DilutionErrorModel",
    "LogNormalViralLoadModel",
    "Posterior",
    "Classification",
    "classify_marginals",
    "ClassificationReport",
    "EvidenceLog",
    "TestRecord",
    "HouseholdPrior",
    "pairwise_correlation",
    "CohortIndexMap",
    "ModelEvidence",
    "replay_log_evidence",
    "PrevalencePosterior",
    "estimate_prevalence",
    "pool_positive_prob",
]

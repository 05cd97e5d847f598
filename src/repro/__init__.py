"""SBGT: Scaling Bayesian-based Group Testing for Disease Surveillance.

Reproduction of Chen, Qi, Lu & Tatsuoka (IPDPS 2023).  The package
layers:

* :mod:`repro.engine` — a from-scratch Spark-like dataflow engine (the
  substrate SBGT distributes over);
* :mod:`repro.lattice`, :mod:`repro.bayes`, :mod:`repro.halving` — the
  Bayesian lattice group-testing framework (priors, dilution response
  models, posterior updates, the Bayesian Halving Algorithm and
  look-ahead rules);
* :mod:`repro.sbgt` — the paper's contribution: distributed lattice
  manipulation, test selection and statistical analysis;
* :mod:`repro.baseline`, :mod:`repro.simulate`, :mod:`repro.metrics`,
  :mod:`repro.workflows` — comparators, synthetic surveillance
  workloads, and end-to-end drivers.

Quickstart::

    from repro import Context, PriorSpec, DilutionErrorModel, SBGTSession, BHAPolicy

    with Context(parallelism=4) as ctx:
        prior = PriorSpec.uniform(16, 0.02)
        model = DilutionErrorModel(sensitivity=0.98, specificity=0.995)
        session = SBGTSession(ctx, prior, model)
        result = session.run_screen(BHAPolicy(), rng=0)
        print(result.report.positives(), result.tests_per_individual)
"""

from repro.engine import Context, EngineConfig
from repro.bayes import (
    PriorSpec,
    PerfectTest,
    BinaryErrorModel,
    DilutionErrorModel,
    LogNormalViralLoadModel,
    Posterior,
    Classification,
)
from repro.halving import (
    BHAPolicy,
    LookaheadPolicy,
    InformationGainPolicy,
    IndividualTestingPolicy,
    DorfmanPolicy,
    PrefixCandidates,
    ExhaustiveCandidates,
)
from repro.engine import EngineListener, EventBus, RecordingListener
from repro.obs import Tracer, trace_phase
from repro.sbgt import (
    SBGTSession,
    SBGTConfig,
    PosteriorBackend,
    DistributedLattice,
    SparsePosterior,
    ParticlePosterior,
    DistributedAnalyzer,
)
from repro.simulate import Cohort, make_cohort, TestLab, get_scenario
from repro.workflows import run_screen, run_surveillance, pooling_calculator

__version__ = "1.0.0"

__all__ = [
    "Context",
    "EngineConfig",
    "PriorSpec",
    "PerfectTest",
    "BinaryErrorModel",
    "DilutionErrorModel",
    "LogNormalViralLoadModel",
    "Posterior",
    "Classification",
    "BHAPolicy",
    "LookaheadPolicy",
    "InformationGainPolicy",
    "IndividualTestingPolicy",
    "DorfmanPolicy",
    "PrefixCandidates",
    "ExhaustiveCandidates",
    "SBGTSession",
    "SBGTConfig",
    "PosteriorBackend",
    "DistributedLattice",
    "SparsePosterior",
    "ParticlePosterior",
    "DistributedAnalyzer",
    "Cohort",
    "make_cohort",
    "TestLab",
    "get_scenario",
    "run_screen",
    "run_surveillance",
    "pooling_calculator",
    "EngineListener",
    "EventBus",
    "RecordingListener",
    "Tracer",
    "trace_phase",
    "__version__",
]

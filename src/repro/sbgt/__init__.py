"""SBGT: the paper's contribution — Bayesian group testing on a dataflow engine.

The lattice state space becomes an RDD of NumPy blocks; the three
operation classes the paper accelerates map onto engine primitives:

* lattice manipulation — distributed prior construction, single-pass
  Bayes updates with deferred normalisation, lattice contraction,
  histogram-guided pruning (:class:`DistributedLattice`);
* test selection — broadcast candidate pools, per-partition down-set
  partials, tree-reduced into the statistics the one set of rules in
  :mod:`repro.halving` finishes at the driver;
* statistical analysis — marginals, entropy and top states as tree
  aggregations (:class:`DistributedAnalyzer`), which the session
  thresholds into classification reports.

:class:`SBGTSession` is the one belief state and screen driver; its
:class:`ScreenStepper` is the one stage loop.

Posteriors are pluggable: every consumer speaks the
:class:`PosteriorBackend` protocol, with the dense
:class:`DistributedLattice` as the exact implementation (its blocks in
an RDD on an engine context, or one driver-resident block without one)
and :class:`SparsePosterior` (explicit above-floor states) and
:class:`ParticlePosterior` (SMC cloud) as approximate implementations
that scale past the dense 2^N wall to cohorts in the hundreds.
"""

from repro.sbgt.backend import PosteriorBackend
from repro.sbgt.config import SBGTConfig
from repro.sbgt.distributed_lattice import DistributedLattice
from repro.sbgt.analyzer import DistributedAnalyzer
from repro.sbgt.particle import ParticlePosterior
from repro.sbgt.session import SBGTSession
from repro.sbgt.sparse import SparsePosterior
from repro.sbgt.stepper import ScreenStepper

__all__ = [
    "SBGTConfig",
    "PosteriorBackend",
    "DistributedLattice",
    "SparsePosterior",
    "ParticlePosterior",
    "DistributedAnalyzer",
    "SBGTSession",
    "ScreenStepper",
]

"""Sequential pooled-test selection: the Bayesian Halving Algorithm family.

Candidate-pool generation strategies, the halving objective itself,
look-ahead (multi-pool per stage) generalisations, and the policy
interface shared by the Bayesian rules and the non-Bayesian baselines
(individual testing, Dorfman).
"""

from repro.halving.candidates import (
    CandidateGenerator,
    PrefixCandidates,
    ExhaustiveCandidates,
    RandomCandidates,
    SlidingWindowCandidates,
)
from repro.halving.bha import halving_objective, ordering_key, select_halving_pool
from repro.halving.lookahead import batch_balance_objective, select_lookahead_pools
from repro.halving.infogain import select_infogain_pool
from repro.halving.policy import (
    SelectionPolicy,
    BHAPolicy,
    LookaheadPolicy,
    InformationGainPolicy,
    IndividualTestingPolicy,
    DorfmanPolicy,
    ArrayTestingPolicy,
)
from repro.halving.stopping import LossBasedStopping, terminal_loss
from repro.halving.hybrid import HybridPolicy

__all__ = [
    "CandidateGenerator",
    "PrefixCandidates",
    "ExhaustiveCandidates",
    "RandomCandidates",
    "SlidingWindowCandidates",
    "ordering_key",
    "halving_objective",
    "select_halving_pool",
    "batch_balance_objective",
    "select_lookahead_pools",
    "select_infogain_pool",
    "SelectionPolicy",
    "BHAPolicy",
    "LookaheadPolicy",
    "InformationGainPolicy",
    "IndividualTestingPolicy",
    "DorfmanPolicy",
    "ArrayTestingPolicy",
    "HybridPolicy",
    "LossBasedStopping",
    "terminal_loss",
]

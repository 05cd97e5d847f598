"""Lattice models: the belief-state representation of Bayesian group testing.

A *state* is a candidate infection pattern — the subset of individuals who
are truly positive — encoded as a ``uint64`` bit mask.  The family of all
states under consideration, with a (log-space) probability per state, is a
:class:`StateSpace`; the partial order by subset inclusion makes it the
Boolean lattice the Biostatistics'22 framework is built on.  Up-sets and
down-sets of pooled tests, marginalisation, conditioning and pruning are
provided as vectorised kernels.
"""

from repro.lattice.states import StateSpace
from repro.lattice.builder import build_dense_prior, build_restricted_prior, enumerate_restricted_masks
from repro.lattice.ops import (
    normalize_log_probs,
    entropy,
    marginals,
    map_state,
    top_states,
    down_set_mass,
    up_set_mass,
    pool_count_distribution,
    posterior_update,
    condition_on_classification,
    project_out_bit,
    kl_divergence,
)
from repro.lattice.prune import prune_below, prune_by_mass, PruneStats
from repro.lattice.partition import LatticeBlock, partition_state_space, merge_blocks
from repro.lattice.serialize import (
    load_posterior,
    load_state_space,
    save_posterior,
    save_state_space,
)

__all__ = [
    "StateSpace",
    "build_dense_prior",
    "build_restricted_prior",
    "enumerate_restricted_masks",
    "normalize_log_probs",
    "entropy",
    "marginals",
    "map_state",
    "top_states",
    "down_set_mass",
    "up_set_mass",
    "pool_count_distribution",
    "posterior_update",
    "condition_on_classification",
    "project_out_bit",
    "kl_divergence",
    "prune_by_mass",
    "prune_below",
    "PruneStats",
    "LatticeBlock",
    "partition_state_space",
    "merge_blocks",
    "save_state_space",
    "load_state_space",
    "save_posterior",
    "load_posterior",
]

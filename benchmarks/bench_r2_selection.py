"""R2 — test selection (abstract claim: up to 1733× vs SOTA).

Times one Bayesian Halving selection over a prefix candidate set (the
per-stage cost of the sequential procedure) on the three implementations.
Selection is the heaviest per-stage operation: every candidate requires a
full down-set sweep, which is why the paper's largest speedup lands here.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SIZES
from repro.baseline.pydict import PyDictLattice
from repro.bayes.priors import PriorSpec
from repro.halving.bha import select_halving_pool
from repro.halving.candidates import PrefixCandidates
from repro.halving.lookahead import select_lookahead_pools
from repro.sbgt.distributed_lattice import DistributedLattice
from repro.sbgt.distributed_lattice import DistributedLattice


def _candidates(n: int) -> np.ndarray:
    marg = np.full(n, 0.03)
    return PrefixCandidates(max_pool_size=n).generate(marg, (1 << n) - 1)


@pytest.mark.parametrize("n", SIZES["r2_baseline"])
def test_r2_select_pydict(benchmark, n):
    lattice = PyDictLattice.from_risks([0.03] * n)
    cands = [int(c) for c in _candidates(n)]
    benchmark(lattice.select_halving_pool, cands)
    benchmark.extra_info["impl"] = "pydict"
    benchmark.extra_info["candidates"] = len(cands)


@pytest.mark.parametrize("n", SIZES["r2_sbgt"])
def test_r2_select_numpy(benchmark, n):
    serial = DistributedLattice.from_prior(None, PriorSpec.uniform(n, 0.03))
    cands = _candidates(n)
    benchmark(select_halving_pool, serial, cands)
    benchmark.extra_info["impl"] = "numpy-serial"
    benchmark.extra_info["candidates"] = int(cands.size)


@pytest.mark.parametrize("n", SIZES["r2_sbgt"])
def test_r2_select_sbgt(benchmark, bench_ctx, n):
    lattice = DistributedLattice.from_prior(bench_ctx, PriorSpec.uniform(n, 0.03), 8)
    cands = _candidates(n)
    benchmark(select_halving_pool, lattice, cands)
    benchmark.extra_info["impl"] = "sbgt"
    benchmark.extra_info["candidates"] = int(cands.size)
    lattice.unpersist()


@pytest.mark.parametrize("n", SIZES["r2_sbgt"][:3])
def test_r2_lookahead_sbgt(benchmark, bench_ctx, n):
    """Batch (look-ahead) selection: the multi-pool generalisation."""
    lattice = DistributedLattice.from_prior(bench_ctx, PriorSpec.uniform(n, 0.03), 8)
    cands = _candidates(n)
    benchmark(select_lookahead_pools, lattice, cands, 2)
    benchmark.extra_info["impl"] = "sbgt-lookahead2"
    lattice.unpersist()

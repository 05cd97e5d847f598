"""R8 — design-choice ablations.

Sweeps the SBGT knobs DESIGN.md calls out, one fixed composite workload
(update + selection + marginals) each:

* block count (too few blocks starves workers; too many drowns the
  scheduler in task overhead);
* executor mode (serial / threads / processes — processes pay the
  pickling costs the repro notes warn about for PySpark);
* pruning epsilon (smaller lattice after pruning vs the pruning pass
  itself).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SIZES
from repro.bayes.dilution import DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.engine import Context
from repro.halving.bha import select_halving_pool
from repro.halving.candidates import PrefixCandidates
from repro.sbgt.distributed_lattice import DistributedLattice

MODEL = DilutionErrorModel(0.98, 0.995, 0.35)
N = SIZES["r8_n"]


def _workload(lattice: DistributedLattice) -> None:
    log_lik = MODEL.log_likelihood_by_count(True, N // 2)
    lattice.update((1 << (N // 2)) - 1, log_lik)
    cands = PrefixCandidates(max_pool_size=N).generate(np.full(N, 0.03), (1 << N) - 1)
    select_halving_pool(lattice, cands)
    lattice.marginals()


@pytest.mark.parametrize("num_blocks", [1, 4, 16, 64])
def test_r8_block_count(benchmark, bench_ctx, num_blocks):
    lattice = DistributedLattice.from_prior(
        bench_ctx, PriorSpec.uniform(N, 0.03), num_blocks
    )
    benchmark.pedantic(_workload, args=(lattice,), rounds=3, warmup_rounds=1)
    benchmark.extra_info["num_blocks"] = num_blocks
    lattice.unpersist()


@pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
def test_r8_executor_mode(benchmark, mode):
    with Context(mode=mode, parallelism=4) as ctx:
        lattice = DistributedLattice.from_prior(ctx, PriorSpec.uniform(N, 0.03), 8)
        benchmark.pedantic(_workload, args=(lattice,), rounds=3, warmup_rounds=1)
        lattice.unpersist()
    benchmark.extra_info["mode"] = mode


@pytest.mark.parametrize("epsilon", [0.0, 1e-9, 1e-6, 1e-4])
def test_r8_prune_epsilon(benchmark, bench_ctx, epsilon):
    """Cost of a screen step after pruning at the given tolerance."""
    prior = PriorSpec.uniform(N, 0.03)

    def staged():
        lattice = DistributedLattice.from_prior(bench_ctx, prior, 8)
        log_lik = MODEL.log_likelihood_by_count(False, N)
        lattice.update((1 << N) - 1, log_lik)
        if epsilon > 0:
            lattice.prune(epsilon)
            lattice.rebalance()
        _workload(lattice)
        states = lattice.num_states()
        lattice.unpersist()
        return states

    states = benchmark.pedantic(staged, rounds=2, warmup_rounds=0)
    benchmark.extra_info["epsilon"] = epsilon
    benchmark.extra_info["states_after_prune"] = states


@pytest.mark.parametrize("compact", [False, True], ids=["plain", "compact"])
def test_r8_lattice_contraction(benchmark, bench_ctx, compact):
    """Whole-screen cost with and without contraction of settled diagnoses."""
    from repro.bayes.priors import PriorSpec
    from repro.halving.policy import BHAPolicy
    from repro.sbgt.config import SBGTConfig
    from repro.sbgt.session import SBGTSession
    from repro.simulate.population import make_cohort

    prior = PriorSpec.uniform(12, 0.05)
    cohort = make_cohort(prior, rng=404)

    def screen():
        session = SBGTSession(
            bench_ctx, prior, MODEL,
            SBGTConfig(max_stages=60, compact_classified=compact),
        )
        result = session.run_screen(BHAPolicy(), rng=42, cohort=cohort)
        session.close()
        return result.efficiency.num_tests

    tests = benchmark.pedantic(screen, rounds=3, warmup_rounds=1)
    benchmark.extra_info["compact"] = compact
    benchmark.extra_info["tests"] = tests


@pytest.mark.parametrize("max_positives", [2, 3, 4])
def test_r8_restricted_support(benchmark, bench_ctx, max_positives):
    """Rank-restricted lattices: support size vs per-stage cost (n=20)."""
    from repro.bayes.priors import PriorSpec
    from repro.sbgt.distributed_lattice import DistributedLattice

    prior = PriorSpec.uniform(20, 0.02)
    lattice = DistributedLattice.from_restricted_prior(bench_ctx, prior, max_positives, 8)
    log_lik = MODEL.log_likelihood_by_count(True, 10)

    benchmark(lattice.update, (1 << 10) - 1, log_lik)
    benchmark.extra_info["max_positives"] = max_positives
    benchmark.extra_info["states"] = lattice.num_states()
    lattice.unpersist()


@pytest.mark.parametrize("strategy", ["prefix", "window", "random"])
def test_r8_candidate_strategy(benchmark, bench_ctx, strategy):
    """Selection cost per candidate-generation strategy."""
    from repro.halving.candidates import RandomCandidates, SlidingWindowCandidates

    gens = {
        "prefix": PrefixCandidates(max_pool_size=N),
        "window": SlidingWindowCandidates(),
        "random": RandomCandidates(count=2 * N, rng=5),
    }
    lattice = DistributedLattice.from_prior(bench_ctx, PriorSpec.uniform(N, 0.03), 8)
    cands = gens[strategy].generate(np.full(N, 0.03), (1 << N) - 1)

    benchmark(select_halving_pool, lattice, cands)
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["candidates"] = int(cands.size)
    lattice.unpersist()

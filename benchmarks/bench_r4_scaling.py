"""R4 — strong scaling (abstract claim: "up to 97.9%" efficiency).

This host exposes a single vCPU, so physical multi-worker timing only
measures contention (see DESIGN.md substitution table).  The bench
instead times the serial many-block workload once (that is the measured
quantity) and attaches the *projected* p-worker efficiency — an LPT
schedule of the recorded per-task wall times onto p simulated executors,
charged with the measured per-task dispatch overhead — as
``extra_info``.  On a real multi-core host, flip ``mode="threads"`` in
``_run_profiled`` and the projection and measurement converge.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import SIZES
from benchmarks.task_profile import projected_time, simulated_makespan, task_profile
from repro.bayes.dilution import DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.engine import Context, RecordingListener
from repro.halving.bha import select_halving_pool
from repro.halving.candidates import PrefixCandidates
from repro.sbgt.distributed_lattice import DistributedLattice

MODEL = DilutionErrorModel(0.98, 0.995, 0.35)
N = SIZES["r4_n"]
WORKERS = SIZES["r4_workers"]
NUM_BLOCKS = 4 * max(WORKERS)


def _run_profiled() -> tuple:
    """One composite workload under task profiling; returns its
    ``(task walls per stage, overhead per task)``."""
    log_lik = MODEL.log_likelihood_by_count(True, N // 2)
    pool = (1 << (N // 2)) - 1
    cands = PrefixCandidates(max_pool_size=N).generate(np.full(N, 0.03), (1 << N) - 1)
    with Context(mode="serial") as ctx:
        lattice = DistributedLattice.from_prior(ctx, PriorSpec.uniform(N, 0.03), NUM_BLOCKS)
        rec = ctx.add_listener(RecordingListener())
        lattice.update(pool, log_lik)
        select_halving_pool(lattice, cands)
        lattice.marginals()
        profile = task_profile(rec.events)
        lattice.unpersist()
    return profile


@pytest.mark.parametrize("workers", WORKERS)
def test_r4_population_scaling(benchmark, workers):
    """The across-cohort axis: independent screen tasks projected onto
    p executors (embarrassingly parallel — efficiency bounded only by
    cohort-duration imbalance)."""
    from repro.bayes.dilution import BinaryErrorModel
    from repro.halving.policy import BHAPolicy
    from repro.workflows.population import screen_population, split_into_cohorts

    priors = split_into_cohorts(np.full(96, 0.04), 12)
    model = BinaryErrorModel(0.99, 0.995)
    holder = {}

    def measured():
        with Context(mode="serial") as ctx:
            rec = ctx.add_listener(RecordingListener())
            screen_population(ctx, priors, model, BHAPolicy, rng=5)
            holder["stages"] = task_profile(rec.events)[0]

    benchmark.pedantic(measured, rounds=2, warmup_rounds=1)
    task_times = [wall for walls in holder["stages"] for wall in walls]
    t1 = simulated_makespan(task_times, 1)
    tp = simulated_makespan(task_times, workers)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["projected_efficiency"] = t1 / tp / workers


@pytest.mark.parametrize("workers", WORKERS)
def test_r4_projected_scaling(benchmark, workers):
    profile = {}

    def measured():
        profile["last"] = _run_profiled()

    benchmark.pedantic(measured, rounds=3, warmup_rounds=1)
    stages, overhead = profile["last"]
    t1 = projected_time(stages, 1, overhead)
    tp = projected_time(stages, workers, overhead)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["projected_time_s"] = tp
    benchmark.extra_info["projected_speedup"] = t1 / tp
    benchmark.extra_info["projected_efficiency"] = t1 / tp / workers
    benchmark.extra_info["states"] = 1 << N

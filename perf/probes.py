"""Micro-probes: single calls into one layer's public functions, timed.

Run in the workload's own child process, at the workload's cohort size
and in its executor mode, after the traced pass.  Each probe reports the
median of a few repeats; they feed per-layer metrics only.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np

from repro.bayes.posterior import Posterior
from repro.bayes.priors import PriorSpec
from repro.engine import closure
from repro.halving.candidates import PrefixCandidates
from repro.lattice.builder import product_prior_log
from repro.lattice.partition import (
    LatticeBlock,
    block_down_set_partial,
    block_log_mass,
    block_marginal_partial,
    block_update,
)
from repro.sbgt.sparse import SparsePosterior
from repro.simulate.testing import TestLab
from repro.workflows.payloads import make_model

#: Cohort sizes the dense lattice kernels are probed at (2^n states).
MAX_DENSE_N = 24


def median_s(fn: Callable[[], object], repeats: int = 9) -> float:
    """Median seconds of *repeats* calls, after one untimed call."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def lattice_probes(n: int, prevalence: float) -> Dict[str, float]:
    """One whole-lattice block at cohort *n*: update (+ mass), the down-set
    sweep over a stage's real candidate table, marginals, and its serde."""
    names = ("lattice.update_kernel_us", "lattice.down_set_kernel_us",
             "lattice.marginals_kernel_us", "engine.serde_roundtrip_us")
    if n > MAX_DENSE_N:
        return dict.fromkeys(names, 0.0)
    prior = PriorSpec.uniform(n, prevalence)
    masks = np.arange(1 << n, dtype=np.uint64)
    block = LatticeBlock(n, masks, product_prior_log(masks, prior.risks))
    candidates = PrefixCandidates().generate(prior.risks, (1 << n) - 1)
    pool = int(candidates[len(candidates) // 2])
    log_lik = make_model().log_likelihood_by_count(False, bin(pool).count("1"))
    return {
        names[0]: 1e6 * median_s(
            lambda: block_log_mass(block_update(block.copy(), pool, log_lik))),
        names[1]: 1e6 * median_s(lambda: block_down_set_partial(block, candidates, 0.0)),
        names[2]: 1e6 * median_s(lambda: block_marginal_partial(block, 0.0)),
        names[3]: 1e6 * median_s(
            lambda: closure.deserialize_oob(*closure.serialize_oob(block))),
    }


def engine_probes(ctx) -> Dict[str, float]:
    """An 8-task identity job on the workload's own executor."""
    if ctx is None:
        return {"engine.noop_job_ms": 0.0}
    job = lambda: ctx.parallelize(range(8), 8).map(lambda x: x).collect()  # noqa: E731
    return {"engine.noop_job_ms": 1e3 * median_s(job, repeats=25)}


def guard_probes() -> Dict[str, float]:
    """Layers no planned optimisation should move: likelihood table, the
    serial posterior update (n=10, what a site screen runs), the assay."""
    model = make_model()
    prior = PriorSpec.uniform(10, 0.05)
    lab = TestLab(model, 0b101, rng=0)
    posterior = Posterior.from_prior(prior, model)
    return {
        "bayes.loglik_table_us": 1e6 * median_s(
            lambda: model.log_likelihood_by_count(True, 6), repeats=51),
        "bayes.serial_update_ms": 1e3 * median_s(
            lambda: posterior.update(0b111111, True)),
        "simulate.assay_us": 1e6 * median_s(lambda: lab.run(0b111111), repeats=51),
    }


def sparse_probe(n: int, prevalence: float, backend: str) -> Dict[str, float]:
    if backend != "sparse":
        return {"sbgt.sparse_seed_ms": 0.0}
    prior = PriorSpec.uniform(n, prevalence)
    return {"sbgt.sparse_seed_ms": 1e3 * median_s(
        lambda: SparsePosterior.from_prior(prior, floor=1e-9), repeats=5)}


def run_probes(n: int, prevalence: float, ctx, backend: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    out.update(lattice_probes(n, prevalence))
    out.update(engine_probes(ctx))
    out.update(guard_probes())
    out.update(sparse_probe(n, prevalence, backend))
    return out

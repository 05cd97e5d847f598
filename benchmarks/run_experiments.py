#!/usr/bin/env python3
"""Regenerate every reconstructed SBGT experiment table (R1–R8).

Usage::

    python benchmarks/run_experiments.py             # all experiments, small scale
    python benchmarks/run_experiments.py r1 r4       # a subset
    python benchmarks/run_experiments.py --scale full
    python benchmarks/run_experiments.py --out results.md

Prints the same rows/series the paper's evaluation reports (see
DESIGN.md's experiment index); EXPERIMENTS.md is written from this
script's output.  Timing tables use best-of-``repeats`` wall time.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from repro.baseline.pydict import PyDictLattice
from repro.bayes.dilution import DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.engine import Context, RecordingListener
from repro.halving.bha import select_halving_pool
from repro.halving.candidates import PrefixCandidates
from repro.halving.policy import BHAPolicy, DorfmanPolicy, IndividualTestingPolicy, LookaheadPolicy
from repro.lattice.ops import marginals as np_marginals
from repro.lattice.ops import posterior_update
from repro.metrics.reporting import format_table
from repro.obs import PHASE_ANALYSIS, PHASE_LATTICE, PHASE_SELECTION, Tracer
from repro.sbgt.config import SBGTConfig
from repro.sbgt.distributed_lattice import DistributedLattice
from repro.simulate.population import make_cohort
from repro.workflows.classify import run_screen

MODEL = DilutionErrorModel(0.98, 0.995, 0.35)

SCALES = {
    "small": {
        "r123_baseline_ns": [10, 12, 14],
        "r123_sbgt_ns": [10, 12, 14, 16, 18],
        "r4_n": 16,
        "r4_workers": [1, 2, 4],
        "r5_prevalences": [0.005, 0.02, 0.05, 0.10, 0.20],
        "r5_reps": 10,
        "r6_reps": 10,
        "r7_dilutions": [0.0, 0.3, 0.8],
        "r7_reps": 10,
        "r8_n": 14,
        "repeats": 3,
    },
    "full": {
        "r123_baseline_ns": [12, 14, 16, 18, 20],
        "r123_sbgt_ns": [12, 14, 16, 18, 20, 22],
        "r4_n": 20,
        "r4_workers": [1, 2, 4, 8],
        "r5_prevalences": [0.005, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20],
        "r5_reps": 30,
        "r6_reps": 30,
        "r7_dilutions": [0.0, 0.2, 0.4, 0.8, 1.2],
        "r7_reps": 25,
        "r8_n": 18,
        "repeats": 3,
    },
}


def best_of(fn: Callable[[], None], repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _pool(n: int) -> int:
    return (1 << (n // 2)) - 1


def traced_phase_wall(phase: str, fn: Callable[[], None], ctx: Context) -> float:
    """Run *fn* once under a fresh tracer; return *phase*'s telemetry wall."""
    tracer = Tracer()
    tracer.attach(ctx)
    try:
        with tracer:
            fn()
    finally:
        tracer.detach(ctx)
    return tracer.phase_wall(phase)


def _candidates(n: int) -> np.ndarray:
    return PrefixCandidates(max_pool_size=n).generate(np.full(n, 0.03), (1 << n) - 1)


# ----------------------------------------------------------------------
def run_r1(cfg: dict, ctx: Context) -> str:
    """Lattice manipulation: construction + one Bayes-update sweep."""
    rows = []
    for n in cfg["r123_sbgt_ns"]:
        states = 1 << n
        log_lik = MODEL.log_likelihood_by_count(True, n // 2)
        pool = _pool(n)
        risks = [0.02] * n

        if n in cfg["r123_baseline_ns"]:
            t_build_base = best_of(lambda: PyDictLattice.from_risks(risks), cfg["repeats"])
            lat = PyDictLattice.from_risks(risks)
            lik = np.exp(log_lik).tolist()
            t_base = best_of(lambda: lat.bayes_update(pool, lik), cfg["repeats"])
        else:
            t_build_base = t_base = float("nan")

        space = PriorSpec.uniform(n, 0.02).build_dense()
        t_np = best_of(lambda: posterior_update(space, pool, log_lik), cfg["repeats"])

        def build_sbgt():
            lat = DistributedLattice.from_prior(ctx, PriorSpec.uniform(n, 0.02), 8)
            lat.unpersist()

        t_build_sbgt = best_of(build_sbgt, cfg["repeats"])
        dl = DistributedLattice.from_prior(ctx, PriorSpec.uniform(n, 0.02), 8)
        t_sbgt = best_of(lambda: dl.update(pool, log_lik), cfg["repeats"])
        t_phase = traced_phase_wall(
            PHASE_LATTICE, lambda: dl.update(pool, log_lik), ctx
        )
        dl.unpersist()

        # Manipulation-class speedup: build + update together, pydict/sbgt.
        total_base = t_build_base + t_base
        total_sbgt = t_build_sbgt + t_sbgt
        speedup = total_base / total_sbgt if np.isfinite(total_base) else float("nan")
        rows.append(
            [
                n,
                states,
                t_build_base,
                t_base,
                t_np,
                t_build_sbgt,
                t_sbgt,
                t_phase,
                f"{speedup:.0f}x",
            ]
        )
    return format_table(
        [
            "n",
            "states",
            "pydict build (s)",
            "pydict update (s)",
            "numpy update (s)",
            "sbgt build (s)",
            "sbgt update (s)",
            "lattice-op wall (s)",
            "sbgt/pydict",
        ],
        rows,
        title="R1 — lattice manipulation (construction + Bayes update sweep)",
    )


def run_r2(cfg: dict, ctx: Context) -> str:
    """Test selection: one halving selection over prefix candidates."""
    rows = []
    for n in cfg["r123_sbgt_ns"]:
        cands = _candidates(n)
        if n in cfg["r123_baseline_ns"]:
            lat = PyDictLattice.from_risks([0.03] * n)
            int_cands = [int(c) for c in cands]
            t_base = best_of(lambda: lat.select_halving_pool(int_cands), cfg["repeats"])
        else:
            t_base = float("nan")

        serial = DistributedLattice.from_prior(None, PriorSpec.uniform(n, 0.03))
        t_np = best_of(lambda: select_halving_pool(serial, cands), cfg["repeats"])

        dl = DistributedLattice.from_prior(ctx, PriorSpec.uniform(n, 0.03), 8)
        t_sbgt = best_of(lambda: select_halving_pool(dl, cands), cfg["repeats"])
        t_phase = traced_phase_wall(
            PHASE_SELECTION, lambda: select_halving_pool(dl, cands), ctx
        )
        dl.unpersist()

        speedup = t_base / t_sbgt if np.isfinite(t_base) else float("nan")
        rows.append([n, len(cands), t_base, t_np, t_sbgt, t_phase, f"{speedup:.0f}x"])
    return format_table(
        [
            "n",
            "cands",
            "pydict (s)",
            "numpy (s)",
            "sbgt (s)",
            "selection wall (s)",
            "sbgt/pydict",
        ],
        rows,
        title="R2 — test selection (Bayesian Halving over candidates)",
    )


def run_r3(cfg: dict, ctx: Context) -> str:
    """Statistical analysis: marginals + entropy per implementation."""
    rows = []
    for n in cfg["r123_sbgt_ns"]:
        if n in cfg["r123_baseline_ns"]:
            lat = PyDictLattice.from_risks([0.05] * n)
            t_base = best_of(lambda: (lat.marginals(), lat.entropy()), cfg["repeats"])
        else:
            t_base = float("nan")

        space = PriorSpec.uniform(n, 0.05).build_dense()
        from repro.lattice.ops import entropy as np_entropy

        t_np = best_of(lambda: (np_marginals(space), np_entropy(space)), cfg["repeats"])

        dl = DistributedLattice.from_prior(ctx, PriorSpec.uniform(n, 0.05), 8)
        t_sbgt = best_of(lambda: (dl.marginals(), dl.entropy()), cfg["repeats"])
        t_phase = traced_phase_wall(
            PHASE_ANALYSIS, lambda: (dl.marginals(), dl.entropy()), ctx
        )
        dl.unpersist()

        speedup = t_base / t_sbgt if np.isfinite(t_base) else float("nan")
        rows.append([n, 1 << n, t_base, t_np, t_sbgt, t_phase, f"{speedup:.0f}x"])
    return format_table(
        [
            "n",
            "states",
            "pydict (s)",
            "numpy (s)",
            "sbgt (s)",
            "analysis wall (s)",
            "sbgt/pydict",
        ],
        rows,
        title="R3 — statistical analyses (marginals + entropy)",
    )


def run_r4(cfg: dict, _ctx: Context) -> str:
    """Strong scaling, projected from measured task profiles.

    This host exposes a single vCPU, so physical multi-worker timing
    only measures contention.  Instead the workload runs once with many
    blocks in serial mode while a listener records every task's wall
    time off the event stream; those task profiles are then
    LPT-scheduled onto p simulated executors
    (``benchmarks/task_profile.py``), including a per-task dispatch
    overhead measured from the scheduler itself.  See DESIGN.md,
    substitution table.
    """
    try:
        from task_profile import projected_time, task_profile
    except ImportError:  # imported as benchmarks.run_experiments
        from benchmarks.task_profile import projected_time, task_profile

    n = cfg["r4_n"]
    num_blocks = 4 * max(cfg["r4_workers"])
    log_lik = MODEL.log_likelihood_by_count(True, n // 2)
    pool = _pool(n)
    cands = _candidates(n)

    with Context(mode="serial") as sctx:
        dl = DistributedLattice.from_prior(sctx, PriorSpec.uniform(n, 0.03), num_blocks)
        rec = sctx.add_listener(RecordingListener())
        dl.update(pool, log_lik)
        select_halving_pool(dl, cands)
        dl.marginals()
        stages, per_task_overhead = task_profile(rec.events)
        dl.unpersist()

    t1 = projected_time(stages, 1, per_task_overhead)
    rows = []
    for workers in cfg["r4_workers"]:
        t = projected_time(stages, workers, per_task_overhead)
        speedup = t1 / t
        eff = speedup / workers
        rows.append([workers, t, f"{speedup:.2f}x", f"{100 * eff:.1f}%"])
    return format_table(
        ["workers", "projected time (s)", "speedup", "efficiency"],
        rows,
        title=(
            f"R4 — strong scaling projected from task profiles "
            f"(n={n}, {1 << n} states, {num_blocks} blocks, "
            f"dispatch={per_task_overhead * 1e6:.0f}us/task)"
        ),
    )


def run_r5(cfg: dict, _ctx: Context) -> str:
    """Tests/individual vs prevalence, per policy.

    Uses the mild dilution-free assay: R5 isolates pooling efficiency
    (the Biostatistics'22 savings story); dilution stress is R7.
    """
    from repro.bayes.dilution import BinaryErrorModel
    from repro.halving.policy import ArrayTestingPolicy
    from repro.metrics.bounds import min_expected_tests

    model = BinaryErrorModel(sensitivity=0.99, specificity=0.995)
    cohort_n = 12
    policies = {
        "bha": BHAPolicy,
        "dorfman": lambda: DorfmanPolicy(4),
        "array": lambda: ArrayTestingPolicy(3, 4),
        "individual": IndividualTestingPolicy,
    }
    rows = []
    for prev in cfg["r5_prevalences"]:
        prior = PriorSpec.uniform(cohort_n, prev)
        neg_thr = min(0.01, prev / 10)
        row: List = [f"{prev:.1%}"]
        for _name, factory in policies.items():
            rng = np.random.default_rng(31337)
            tpis, accs = [], []
            for rep in range(cfg["r5_reps"]):
                cohort = make_cohort(prior, rng=5000 + rep)
                res = run_screen(
                    prior, model, factory(), rng=rng, cohort=cohort,
                    config=SBGTConfig(max_stages=60, negative_threshold=neg_thr),
                )
                tpis.append(res.tests_per_individual)
                accs.append(res.accuracy)
            row.append(float(np.mean(tpis)))
        row.append(min_expected_tests(prior) / cohort_n)  # Shannon floor
        rows.append(row)
    return format_table(
        [
            "prevalence",
            "bha tests/ind",
            "dorfman tests/ind",
            "array tests/ind",
            "individual tests/ind",
            "shannon floor",
        ],
        rows,
        title=f"R5 — efficiency vs prevalence (cohort={cohort_n}, {cfg['r5_reps']} reps)",
    )


def run_r6(cfg: dict, _ctx: Context) -> str:
    """Stages/tests trade-off of look-ahead batching."""
    from repro.halving.hybrid import HybridPolicy

    prior = PriorSpec.uniform(10, 0.05)
    rules = {"bha": BHAPolicy, "lookahead-2": lambda: LookaheadPolicy(2),
             "lookahead-3": lambda: LookaheadPolicy(3),
             "hybrid": lambda: HybridPolicy()}
    rows = []
    for name, factory in rules.items():
        rng = np.random.default_rng(99)
        stages, tests = [], []
        for rep in range(cfg["r6_reps"]):
            cohort = make_cohort(prior, rng=6000 + rep)
            res = run_screen(
                prior, MODEL, factory(), rng=rng, cohort=cohort,
                config=SBGTConfig(max_stages=60),
            )
            stages.append(res.stages_used)
            tests.append(res.efficiency.num_tests)
        rows.append(
            [name, float(np.mean(stages)), float(np.std(stages)), float(np.mean(tests))]
        )
    return format_table(
        ["rule", "stages (mean)", "stages (sd)", "tests (mean)"],
        rows,
        title=f"R6 — look-ahead stage/test trade-off ({cfg['r6_reps']} reps)",
    )


def run_r7(cfg: dict, _ctx: Context) -> str:
    """Accuracy and cost across dilution strengths."""
    prior = PriorSpec.uniform(10, 0.08)
    rows = []
    for delta in cfg["r7_dilutions"]:
        model = DilutionErrorModel(0.98, 0.995, delta)
        rng = np.random.default_rng(1)
        accs, sens, tests = [], [], []
        for rep in range(cfg["r7_reps"]):
            cohort = make_cohort(prior, rng=7000 + rep)
            res = run_screen(
                prior, model, BHAPolicy(), rng=rng, cohort=cohort,
                config=SBGTConfig(max_stages=80),
            )
            accs.append(res.accuracy)
            sens.append(res.confusion.sensitivity)
            tests.append(res.efficiency.num_tests)
        rows.append(
            [delta, float(np.mean(accs)), float(np.mean(sens)), float(np.mean(tests))]
        )
    return format_table(
        ["dilution δ", "accuracy", "sensitivity", "tests (mean)"],
        rows,
        title=f"R7 — robustness under dilution ({cfg['r7_reps']} reps)",
    )


def run_r8(cfg: dict, _ctx: Context) -> str:
    """Ablations: block count and executor mode on one workload."""
    n = cfg["r8_n"]
    log_lik = MODEL.log_likelihood_by_count(True, n // 2)
    pool = _pool(n)
    cands = _candidates(n)
    sections = []

    rows = []
    with Context(mode="threads", parallelism=4) as tctx:
        for blocks in (1, 4, 16, 64):
            dl = DistributedLattice.from_prior(tctx, PriorSpec.uniform(n, 0.03), blocks)

            def step():
                dl.update(pool, log_lik)
                select_halving_pool(dl, cands)
                dl.marginals()

            rows.append([blocks, best_of(step, cfg["repeats"])])
            dl.unpersist()
    sections.append(
        format_table(["blocks", "time (s)"], rows, title=f"R8a — block count (n={n})")
    )

    rows = []
    for mode in ("serial", "threads", "processes"):
        with Context(mode=mode, parallelism=4) as mctx:
            dl = DistributedLattice.from_prior(mctx, PriorSpec.uniform(n, 0.03), 8)

            def step():
                dl.update(pool, log_lik)
                select_halving_pool(dl, cands)
                dl.marginals()

            rows.append([mode, best_of(step, cfg["repeats"])])
            dl.unpersist()
    sections.append(
        format_table(["mode", "time (s)"], rows, title=f"R8b — executor mode (n={n})")
    )
    return "\n\n".join(sections)


def engine_bench() -> dict:
    """Machine-readable micro-measurements of the process-mode data plane.

    Three numbers the data-plane work is judged by: the repeated-action
    speedup of the worker-resident block cache, the scheduler-job count
    of one Bayes update (single-pass = 1), and the in-band/out-of-band
    byte split when a lattice payload ships through pickle protocol 5.
    """
    from repro.engine.closure import serialize_oob
    from repro.engine.listener import JobStart, RecordingListener

    out: dict = {}

    def slow(x):
        time.sleep(0.01)
        return x * x

    n_actions = 6
    with Context(mode="processes", parallelism=1) as c:
        uncached = c.parallelize(list(range(5)), 1).map(slow)
        cached = c.parallelize(list(range(5)), 1).map(slow).cache()
        cached.sum()  # materialize in the worker store (untimed)
        t0 = time.perf_counter()
        for _ in range(n_actions):
            uncached.sum()
        wall_uncached = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n_actions):
            cached.sum()
        wall_cached = time.perf_counter() - t0
    out["process_worker_cache"] = {
        "actions": n_actions,
        "uncached_wall_s": round(wall_uncached, 4),
        "cached_wall_s": round(wall_cached, 4),
        "speedup": round(wall_uncached / wall_cached, 1),
    }

    n = 12
    with Context(mode="serial") as c:
        dl = DistributedLattice.from_prior(c, PriorSpec.uniform(n, 0.02), 8)
        rec = c.add_listener(RecordingListener())
        dl.update(_pool(n), MODEL.log_likelihood_by_count(True, n // 2))
        jobs_per_update = len(rec.of_type(JobStart))
        dl.unpersist()
    out["bayes_update"] = {"n": n, "scheduler_jobs_per_update": jobs_per_update}

    space = PriorSpec.uniform(14, 0.02).build_dense()
    data, buffers = serialize_oob(space)
    out["oob_shipping"] = {
        "payload": "dense lattice, n=14 (16384 states)",
        "inband_bytes": len(data),
        "oob_buffers": len(buffers),
        "oob_bytes": sum(len(b) for b in buffers),
    }

    # Posterior backends: one update + marginals at a dense-feasible
    # size for all three representations, plus the headline number —
    # a complete large-N screen the dense lattice cannot represent.
    from repro.halving.policy import BHAPolicy
    from repro.sbgt.session import SBGTSession
    from repro.workflows.payloads import make_posterior

    n = 12
    pool = _pool(n)
    ll = MODEL.log_likelihood_by_count(True, n // 2)
    backends: dict = {}
    with Context(mode="serial") as c:
        for name in ("dense", "sparse", "particle"):
            post = make_posterior(PriorSpec.uniform(n, 0.02), c, SBGTConfig(backend=name))
            t0 = time.perf_counter()
            post.update(pool, ll)
            post.marginals()
            backends[name] = {
                "n": n,
                "states": post.num_states(),
                "update_plus_marginals_s": round(time.perf_counter() - t0, 4),
            }
            post.unpersist()

    big_n = 120
    t0 = time.perf_counter()
    session = SBGTSession(
        None,
        PriorSpec.uniform(big_n, 0.04),
        MODEL,
        SBGTConfig(backend="sparse", max_stages=200),
    )
    try:
        res = session.run_screen(BHAPolicy(), rng=7)
    finally:
        session.close()
    backends["sparse_large_n_screen"] = {
        "n": big_n,
        "wall_s": round(time.perf_counter() - t0, 3),
        "tests": res.efficiency.num_tests,
        "stages": res.stages_used,
        "accuracy": round(res.accuracy, 4),
    }
    out["posterior_backends"] = backends

    # Surveillance allocators: the seeded bandit-vs-uniform comparison
    # (the 1.2x gate itself is asserted by bench_surveil.py in CI).
    try:
        from bench_surveil import compare_allocators
    except ImportError:  # imported as benchmarks.run_experiments
        from benchmarks.bench_surveil import compare_allocators

    out["surveil"] = compare_allocators()
    return out


EXPERIMENTS: Dict[str, Callable[[dict, Context], str]] = {
    "r1": run_r1,
    "r2": run_r2,
    "r3": run_r3,
    "r4": run_r4,
    "r5": run_r5,
    "r6": run_r6,
    "r7": run_r7,
    "r8": run_r8,
}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*", default=[], help="r1..r8 (default: all)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--out", default=None, help="also write results to this file")
    parser.add_argument(
        "--engine-json",
        default=str(pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"),
        help="where to write the engine data-plane measurements (default: repo root)",
    )
    parser.add_argument(
        "--skip-engine-json",
        action="store_true",
        help="skip the engine data-plane bench entirely",
    )
    args = parser.parse_args(argv)

    wanted = [e.lower() for e in (args.experiments or sorted(EXPERIMENTS))]
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    cfg = SCALES[args.scale]
    outputs = []
    with Context(mode="threads", parallelism=4) as ctx:
        for name in wanted:
            t0 = time.perf_counter()
            table = EXPERIMENTS[name](cfg, ctx)
            elapsed = time.perf_counter() - t0
            outputs.append(table)
            print(table)
            print(f"[{name} done in {elapsed:.1f}s]\n")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n\n".join(outputs) + "\n")

    if not args.skip_engine_json:
        bench = engine_bench()
        with open(args.engine_json, "w") as fh:
            json.dump(bench, fh, indent=2)
            fh.write("\n")
        print(f"[engine data-plane bench written to {args.engine_json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())

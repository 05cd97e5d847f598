"""Where a job runs: lattice jobs and whole screens, inline vs on the pool.

Two tables, each on a ``threads x 2`` context, once with every job
placed on the submitting thread and once with every job placed on the
pool; the two placements alternate round by round, so a drift in the
machine's speed lands on both.

* Jobs: the two jobs a dense BHA stage runs — the Bayes update (apply +
  normalise + marginals) and the candidates' down-set masses — over
  lattices of 2^10 … 2^20 states cut into 1, 2 or 4 blocks.  Each cell
  is the median wall time per job in ms with its inter-quartile range,
  and the process CPU per update job; the last column is pool / inline
  (above 1: the submitting thread is faster).
* Screens: whole ``ScreenRequest`` screens (prevalence 0.01, the default
  two blocks) per cohort, as ops/s and CPU ms per screen: the job mix a
  served request runs, start-up and pruning included.

The scheduler's :data:`~repro.engine.scheduler.INLINE_TASK_BYTES` is
set from these tables (docs/performance.md, "Where a job runs").  Run it
on two CPUs and again under ``taskset -c 0``::

    PYTHONPATH=src python benchmarks/bench_placement.py
    PYTHONPATH=src taskset -c 0 python benchmarks/bench_placement.py
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.bayes.dilution import BinaryErrorModel
from repro.bayes.priors import PriorSpec
from repro.engine import Context, scheduler
from repro.sbgt.distributed_lattice import DistributedLattice
from repro.serve.protocol import ScreenRequest

MODEL = BinaryErrorModel(sensitivity=0.99, specificity=0.995)
#: The constant each placement forces: every block fits / none does.
PLACEMENTS = {"inline": 1 << 62, "pool": -1}


def _order(round_: int) -> List[str]:
    """The placements in the order round *round_* runs them (alternating)."""
    names = list(PLACEMENTS)
    return names if round_ % 2 == 0 else names[::-1]


def _quartiles(xs: List[float]) -> Tuple[float, float]:
    """``(median, IQR)`` of *xs*."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q3 - q1


def _time_jobs(
    lattice: DistributedLattice, pools: np.ndarray, reps: int
) -> Dict[str, List[float]]:
    """Wall per update job, CPU per update job, wall per down-set job (s)."""
    out: Dict[str, List[float]] = {"update": [], "update_cpu": [], "down_set": []}
    for r in range(reps):
        pool = int(pools[r % pools.size])
        ll = MODEL.log_likelihood_by_count(r % 2 == 0, bin(pool).count("1"))
        c0, t0 = time.process_time(), time.perf_counter()
        lattice.update(pool, ll)
        out["update"].append(time.perf_counter() - t0)
        out["update_cpu"].append(time.process_time() - c0)
        t0 = time.perf_counter()
        lattice.down_set_masses(pools)
        out["down_set"].append(time.perf_counter() - t0)
    return out


def measure(n: int, num_blocks: int, rounds: int, reps: int) -> Dict[str, Dict[str, List[float]]]:
    """Per placement, the job times of *rounds* × *reps* update + down-set pairs."""
    prior = PriorSpec(np.full(n, 0.05))
    # The candidate set of one halving stage: n nested prefixes.
    pools = np.array([(1 << k) - 1 for k in range(1, n + 1)], dtype=np.uint64)
    times = {name: {"update": [], "update_cpu": [], "down_set": []} for name in PLACEMENTS}
    saved = scheduler.INLINE_TASK_BYTES
    with Context(mode="threads", parallelism=2) as ctx:
        lattice = DistributedLattice.from_prior(ctx, prior, num_blocks)
        lattice.checkpoint_interval = 1 << 30  # time the jobs, not the rebalance
        try:
            for r in range(rounds):
                for name in _order(r):
                    scheduler.INLINE_TASK_BYTES = PLACEMENTS[name]
                    _time_jobs(lattice, pools, 1)  # warm the placement
                    for key, xs in _time_jobs(lattice, pools, reps).items():
                        times[name][key].extend(xs)
        finally:
            scheduler.INLINE_TASK_BYTES = saved
            lattice.unpersist()
    return times


def _cell(xs: List[float]) -> str:
    med, iqr = _quartiles(xs)
    return f"{med * 1e3:.3g} [{iqr * 1e3:.2g}]"


def table(sizes: List[int], blocks: List[int], rounds: int) -> str:
    """The placement table as markdown, one row per (states, blocks)."""
    lines = [
        f"affinity: {len(os.sched_getaffinity(0))} CPU(s); "
        "wall ms median [IQR]; CPU ms median",
        "",
        "| states | blocks | block KiB | update inline | update pool | down-set inline "
        "| down-set pool | update CPU inline / pool | pool / inline (update, down-set) |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for n in sizes:
        # Enough repeats for a stable median, few on the big lattices.
        reps = max(3, min(20, (1 << 22) >> n))
        for nb in blocks:
            t = measure(n, nb, rounds, reps)
            inline, pool = t["inline"], t["pool"]
            ratio = [
                statistics.median(pool[k]) / statistics.median(inline[k])
                for k in ("update", "down_set")
            ]
            cpu = [statistics.median(t[p]["update_cpu"]) * 1e3 for p in PLACEMENTS]
            block_kib = (8 << n) // nb / 1024
            lines.append(
                f"| 2^{n} | {nb} | {block_kib:g} | {_cell(inline['update'])} "
                f"| {_cell(pool['update'])} | {_cell(inline['down_set'])} "
                f"| {_cell(pool['down_set'])} | {cpu[0]:.3g} / {cpu[1]:.3g} "
                f"| {ratio[0]:.2f}, {ratio[1]:.2f} |"
            )
            print(lines[-1], file=sys.stderr, flush=True)
    return "\n".join(lines)


def screen_table(cohorts: List[int], rounds: int) -> str:
    """Whole-screen throughput per cohort, inline vs pool, as markdown."""
    lines = [
        "| cohort | block KiB | inline ops/s | pool ops/s | CPU ms inline / pool | inline / pool |",
        "|---|---|---|---|---|---|",
    ]
    saved = scheduler.INLINE_TASK_BYTES
    with Context(mode="threads", parallelism=2) as ctx:
        try:
            for cohort in cohorts:
                per = max(6, (1 << 19) >> cohort)  # screens per round: ~equal work
                ops = {name: [] for name in PLACEMENTS}
                cpu = {name: [] for name in PLACEMENTS}
                for r in range(rounds):
                    for name in _order(r):
                        scheduler.INLINE_TASK_BYTES = PLACEMENTS[name]
                        c0, t0 = time.process_time(), time.perf_counter()
                        for seed in range(r * per, (r + 1) * per):
                            ScreenRequest.from_payload(
                                {"cohort": cohort, "prevalence": 0.01, "seed": seed}
                            ).execute(ctx)
                        ops[name].append(per / (time.perf_counter() - t0))
                        cpu[name].append((time.process_time() - c0) / per * 1e3)
                med = {name: statistics.median(v) for name, v in ops.items()}
                lines.append(
                    f"| {cohort} | {(8 << cohort) // 2 / 1024:g} "
                    f"| {med['inline']:.1f} [{_quartiles(ops['inline'])[1]:.2g}] "
                    f"| {med['pool']:.1f} [{_quartiles(ops['pool'])[1]:.2g}] "
                    f"| {statistics.median(cpu['inline']):.3g} / {statistics.median(cpu['pool']):.3g} "
                    f"| {med['inline'] / med['pool']:.2f} |"
                )
                print(lines[-1], file=sys.stderr, flush=True)
        finally:
            scheduler.INLINE_TASK_BYTES = saved
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 12, 14, 16, 18, 20],
                        help="lattice sizes n (2^n states)")
    parser.add_argument("--blocks", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--cohorts", type=int, nargs="+", default=[12, 14, 16, 17, 18, 19, 20],
                        help="cohorts of the screen table")
    parser.add_argument("--rounds", type=int, default=5,
                        help="alternating inline / pool rounds per cell")
    args = parser.parse_args(argv)
    print(table(args.sizes, args.blocks, args.rounds))
    print()
    print(screen_table(args.cohorts, args.rounds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

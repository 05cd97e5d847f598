"""Where a lattice runs: whole screens on the driver plane vs the engine.

One table, on a ``threads x 2`` context: whole ``ScreenRequest``
screens per cohort and policy, once with every lattice held on the
driver plane (the context's blocks at the driver, no engine job) and
once with every lattice on the engine (a cached RDD, one job per fold,
each on the pool).  The two planes alternate round by round, so a drift
in the machine's speed lands on both.  Each cell is screens per second,
median [IQR] over the rounds, and the process CPU per screen; the last
column is driver / engine throughput (above 1: the driver plane is
faster).  Both planes print the same bytes, so the screens are the same
work.

:data:`~repro.sbgt.distributed_lattice.DRIVER_PLANE_STATES` is set from
this table (docs/performance.md, "Where a lattice runs").  Run it on two
CPUs and again under ``taskset -c 0``::

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

from repro.engine import Context
from repro.sbgt import distributed_lattice
from repro.serve.protocol import ScreenRequest

#: The constant each plane forces: every lattice fits / none does.
PLANES = {"driver": 1 << 62, "engine": -1}
POLICIES = ("bha", "dorfman-4", "individual")


def _order(round_: int) -> List[str]:
    """The planes in the order round *round_* runs them (alternating)."""
    names = list(PLANES)
    return names if round_ % 2 == 0 else names[::-1]


def _quartiles(xs: List[float]) -> Tuple[float, float]:
    """``(median, IQR)`` of *xs*."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q3 - q1


def measure(
    ctx: Context, cohort: int, policy: str, prevalence: float, rounds: int
) -> Dict[str, Dict[str, List[float]]]:
    """Per plane, screens/s and CPU ms per screen of each round."""
    per = max(4, (1 << 18) >> cohort)  # screens per round: ~equal work
    out = {name: {"ops": [], "cpu": []} for name in PLANES}
    saved = distributed_lattice.DRIVER_PLANE_STATES
    try:
        for r in range(rounds):
            for name in _order(r):
                distributed_lattice.DRIVER_PLANE_STATES = PLANES[name]
                c0, t0 = time.process_time(), time.perf_counter()
                for seed in range(r * per, (r + 1) * per):
                    ScreenRequest.from_payload(
                        {"cohort": cohort, "prevalence": prevalence, "policy": policy,
                         "seed": seed}
                    ).execute(ctx)
                out[name]["ops"].append(per / (time.perf_counter() - t0))
                out[name]["cpu"].append((time.process_time() - c0) / per * 1e3)
    finally:
        distributed_lattice.DRIVER_PLANE_STATES = saved
    return out


def table(cohorts: List[int], prevalence: float, rounds: int) -> str:
    """The crossover table as markdown, one row per (cohort, policy)."""
    lines = [
        f"affinity: {len(os.sched_getaffinity(0))} CPU(s); prevalence {prevalence}; "
        f"{rounds} alternating rounds; screens/s median [IQR]; CPU ms per screen median",
        "",
        "| cohort | policy | driver ops/s | engine ops/s | CPU ms driver / engine "
        "| driver / engine |",
        "|---|---|---|---|---|---|",
    ]
    with Context(mode="threads", parallelism=2) as ctx:
        for cohort in cohorts:
            for policy in POLICIES:
                m = measure(ctx, cohort, policy, prevalence, rounds)
                med = {name: _quartiles(m[name]["ops"]) for name in PLANES}
                cpu = {name: statistics.median(m[name]["cpu"]) for name in PLANES}
                lines.append(
                    f"| {cohort} | {policy} "
                    f"| {med['driver'][0]:.1f} [{med['driver'][1]:.2g}] "
                    f"| {med['engine'][0]:.1f} [{med['engine'][1]:.2g}] "
                    f"| {cpu['driver']:.3g} / {cpu['engine']:.3g} "
                    f"| {med['driver'][0] / med['engine'][0]:.2f} |"
                )
                print(lines[-1], file=sys.stderr, flush=True)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cohorts", type=int, nargs="+", default=list(range(12, 19)),
                        help="cohorts (2^n states) of the table")
    parser.add_argument("--prevalence", type=float, default=0.05)
    parser.add_argument("--rounds", type=int, default=5,
                        help="alternating driver / engine rounds per cell")
    args = parser.parse_args(argv)
    print(table(args.cohorts, args.prevalence, args.rounds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

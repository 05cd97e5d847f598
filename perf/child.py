"""One workload, measured in this process.  Started by ``bench.py``.

Protocol: *setup* (process start → end of the first, cold op) → *settle*
(untimed ops from an independent seed stream until ≥ 3 s and ≥ 50 ops) →
*timed* (whole blocks, closed loop, tracing off, until ``--seconds`` have
passed) → optionally *traced* (a prefix of the same op list replayed with
spans on) and the micro-probes.  Prints one JSON object on the last line
of stdout; everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETTLE_SECONDS, SETTLE_OPS = 3.0, 50
_TICK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# CPU and memory of this process and everything it started
# ----------------------------------------------------------------------
class ProcessTree:
    """This process and its live descendants (process-mode workers, the
    ``repro serve`` subprocess), read from ``/proc``: ``RUSAGE_CHILDREN``
    only counts children that have been reaped."""

    def __init__(self) -> None:
        parent_of: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    stat = Path("/proc", entry, "stat").read_text()
                except OSError:  # exited while we were listing
                    continue
                parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])  # field 4: ppid
        self.descendants: List[int] = []
        frontier = [os.getpid()]
        while frontier:
            pid = frontier.pop()
            kids = [p for p, parent in parent_of.items() if parent == pid]
            self.descendants += kids
            frontier += kids

    def cpu_s(self) -> float:
        """User+system CPU seconds of self, reaped children and live descendants."""
        total = 0.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
            usage = resource.getrusage(who)
            total += usage.ru_utime + usage.ru_stime
        for pid in self.descendants:
            try:
                fields = Path("/proc", str(pid), "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:  # exited: its time has moved into RUSAGE_CHILDREN
                continue
            total += (int(fields[11]) + int(fields[12])) / _TICK  # fields 14, 15: utime, stime
        return total

    def peak_rss_mb(self) -> float:
        """Peak RSS (``VmHWM``) of self plus the sum over live descendants, MiB."""
        total_kb = 0
        for pid in [os.getpid()] + self.descendants:
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
class Block(NamedTuple):
    """One finished block: its ops, its wall seconds, the tree's CPU seconds."""

    ops: List[Any]
    wall_s: float
    cpu_s: float


def run_blocks(workload, blocks: Iterator[Any], tree: ProcessTree, seconds: float,
               min_blocks: int = 1, min_ops: int = 0) -> List[Block]:
    """Run whole blocks until *seconds* have passed and the minimums are met."""
    start = time.perf_counter()
    done: List[Block] = []
    while (len(done) < min_blocks or sum(len(b.ops) for b in done) < min_ops
           or time.perf_counter() - start < seconds):
        block = next(blocks)
        cpu0, t0 = tree.cpu_s(), time.perf_counter()
        ops = workload.run_block(block)
        wall = time.perf_counter() - t0
        done.append(Block(ops, wall, tree.cpu_s() - cpu0))
    return done


def flatten(blocks: List[Block]) -> List[Any]:
    return [op for block in blocks for op in block.ops]


def sha256_of(ops: List[Any]) -> str:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.text.encode("utf-8"))
    return digest.hexdigest()


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(blocks: List[Block], rss_mb: float) -> Dict[str, float]:
    """Throughput and CPU are medians over the blocks, which hold equal
    work: a slow second of the machine then costs one block, not the run."""
    ops = flatten(blocks)
    latencies = sorted(op.latency_s * 1e3 for op in ops)
    return {
        "throughput_ops_s": statistics.median(len(b.ops) / b.wall_s for b in blocks),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": percentile(latencies, 0.95),
        "cpu_ms_per_op": statistics.median(1e3 * b.cpu_s / len(b.ops) for b in blocks),
        "peak_rss_mb": rss_mb,
        "accuracy": ratio(sum(op.acc_num for op in ops), sum(op.acc_den for op in ops)),
        "tests_per_individual": ratio(sum(op.tests for op in ops),
                                      sum(op.tests_den for op in ops)),
    }


# ----------------------------------------------------------------------
# per-layer metrics from the traced pass
# ----------------------------------------------------------------------
def per_layer(workload, tracer, engine, ops: List[Any], blocks: Iterator[Any],
              overhead_ratio: float, cpu_ms_per_op: float, seed: int) -> Dict[str, float]:
    import probes
    from workloads import PARALLELISM

    def mean(xs) -> float:
        return statistics.fmean(xs) if xs else 0.0

    ms = {k: [1e3 * d for d in v] for k, v in tracer.durations().items()}
    n = len(ops)
    backend_calls = {k[len("sbgt.backend."):]: v for k, v in ms.items()
                     if k.startswith("sbgt.backend.")}
    stages = len(ms.get("sbgt.update", ()))
    rounds = len(ms.get("surveil.round", ()))

    m = probes.run_probes(workload.cohort, workload.prevalence, workload.ctx, workload.backend)
    m.update(workload.layer_metrics(ops, blocks, seed))
    kernel_ms = (
        len(backend_calls.get("update", ())) * m["lattice.update_kernel_us"]
        + len(backend_calls.get("down_set_masses", ())) * m["lattice.down_set_kernel_us"]
        + len(backend_calls.get("marginals", ())) * m["lattice.marginals_kernel_us"]
    ) / 1e3 / n
    states = mean(tracer.samples["states"])
    round_ms = mean(ms.get("surveil.round"))
    screens_per_round = ratio(engine.tasks, rounds)
    m.update({
        "engine.jobs_per_op": len(engine.job_walls) / n,
        "engine.tasks_per_op": engine.tasks / n,
        "engine.job_wall_ms": 1e3 * mean(engine.job_walls),
        "engine.sched_overhead_ms_per_op":
            1e3 * (sum(engine.job_walls) - engine.critical_task_s) / n,
        "engine.task_cpu_ms_per_op": 1e3 * engine.task_cpu_s / n,
        "engine.cache_hit_ratio": ratio(engine.cache_hits,
                                        engine.cache_hits + engine.cache_misses),
        "engine.task_retries": float(engine.retries),
        "sbgt.session_init_ms": mean(ms.get("sbgt.session_init")),
        "sbgt.select_ms_per_stage": mean(ms.get("sbgt.select")),
        "sbgt.update_ms_per_stage": mean(ms.get("sbgt.update")),
        "sbgt.stages_per_op": ratio(stages, n),
        "sbgt.backend_calls_per_stage": ratio(sum(map(len, backend_calls.values())), stages),
        "sbgt.backend_update_ms": mean(backend_calls.get("update")),
        "sbgt.backend_down_set_ms": mean(backend_calls.get("down_set_masses")),
        "sbgt.backend_marginals_ms": mean(backend_calls.get("marginals")),
        "sbgt.states_mean": states,
        "lattice.kernel_ms_per_op": kernel_ms,
        "lattice.kernel_share": ratio(kernel_ms, cpu_ms_per_op),
        "lattice.bytes_per_update": states * 16.0,  # computed: uint64 mask + float64 log-prob
        "halving.candidates_ms": mean(ms.get("halving.candidates")),
        "halving.candidates_per_stage": mean(tracer.samples["candidates"]),
        "workflows.parse_build_ms": mean(ms.get("workflows.parse_build")),
        "workflows.payload_ms": mean(ms.get("workflows.payload")),
        "surveil.round_ms": round_ms,
        "surveil.allocate_ms": mean(ms.get("surveil.allocate")),
        "surveil.hyperprior_ms": mean(ms.get("surveil.hyperprior")),
        "surveil.screens_per_round": screens_per_round,
        "surveil.parallel_efficiency": ratio(
            screens_per_round * m["surveil.site_screen_ms"], round_ms * PARALLELISM),
        "obs.trace_overhead_ratio": overhead_ratio,
    })
    return m


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--phase", choices=["setup", "timed", "traced"], default="timed")
    parser.add_argument("--traced-share", type=float, default=0.25,
                        help="share of the timed blocks the traced pass replays")
    parser.add_argument("--quick", action="store_true",
                        help="no settle, two blocks of 5")
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() at which the parent started this process")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import trace as spans
    from workloads import BLOCK, PARALLELISM, make_workload

    workload = make_workload(args.workload)
    size = 5 if args.quick else BLOCK
    settle_rng = np.random.default_rng([args.seed, 1])
    out: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                           "mode": workload.mode, "parallelism": PARALLELISM}
    try:
        workload.start()
        workload.warm_once(settle_rng)
        out["setup_s"] = time.monotonic() - t0
        if args.phase == "setup":
            print(json.dumps(out))
            return 0

        tree = ProcessTree()
        settle = [] if args.quick else run_blocks(
            workload, workload.blocks(settle_rng, size, "settle"), tree, SETTLE_SECONDS,
            min_ops=SETTLE_OPS)
        out["settle_s"] = sum(b.wall_s for b in settle)
        out["settle_ops"] = len(flatten(settle))

        blocks = workload.blocks(np.random.default_rng([args.seed, 0]), size, "timed")
        timed = run_blocks(workload, blocks, tree, 0.0 if args.quick else args.seconds,
                           min_blocks=2 if args.quick else 1)
        ops = flatten(timed)
        quarter = max(1, len(ops) // 4)
        out.update(
            ops=len(ops), failed=sum(not op.ok for op in ops), blocks=len(timed),
            wall_s=sum(b.wall_s for b in timed),
            end_to_end=end_to_end(timed, tree.peak_rss_mb()),
            drift_ratio=ratio(statistics.fmean(op.latency_s for op in ops[-quarter:]),
                              statistics.fmean(op.latency_s for op in ops[:quarter])),
            payload_sha256=sha256_of(timed[0].ops),
        )

        if args.phase == "traced":
            replay = max(1, math.ceil(args.traced_share * len(timed)))
            tracer = spans.Tracer()
            engine = spans.EngineSpans(tracer)
            workload.trace_begin()
            if workload.replayable:
                blocks = workload.blocks(np.random.default_rng([args.seed, 0]), size, "timed")
            if workload.ctx is not None:
                workload.ctx.add_listener(engine)
            workload.tracer = tracer
            try:
                traced = run_blocks(workload, blocks, tree, 0.0, min_blocks=replay)
            finally:
                workload.tracer = None
                if workload.ctx is not None:
                    workload.ctx.remove_listener(engine)
            traced_ops = flatten(traced)

            def rate(some: List[Block]) -> float:
                return len(flatten(some)) / sum(b.wall_s for b in some)

            overhead = rate(timed[:replay]) / rate(traced)
            table = spans.self_time_table(tracer.spans)
            out.update(
                traced_ops=len(traced_ops),
                traced_failed=sum(not op.ok for op in traced_ops),
                traced_sha_match=(not workload.replayable
                                  or sha256_of(traced[0].ops) == out["payload_sha256"]),
                self_time=table,
                per_layer=per_layer(workload, tracer, engine, traced_ops, blocks, overhead,
                                    out["end_to_end"]["cpu_ms_per_op"], args.seed),
            )
            args.out.mkdir(parents=True, exist_ok=True)
            spans.write_chrome(tracer.spans, args.out / f"trace-{args.workload}.json")
            print(spans.format_self_time(args.workload, table), file=sys.stderr)
    finally:
        workload.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The layered SBGT benchmark: six workloads, each in its own child process.

    python3 perf/bench.py                       all workloads, end-to-end metrics
    python3 perf/bench.py --trace               ... then a traced pass: per-layer metrics
    python3 perf/bench.py --workload dense_small --seed 3 --seconds 10 --trace 0
    python3 perf/bench.py --compare A.json B.json

Names, units, directions and bounds come from ``BENCHMARK.json`` at the
repository root; a run whose metric names differ from it fails.  With one
``--workload`` the last line of stdout is the result object the driver
reads: end-to-end metrics for ``--trace 0``, per-layer for ``--trace 1``.
Results also go to ``<out>/results.json`` (default ``perf/out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170
#: ``--trace 1`` spends this share of ``--seconds`` untraced, then replays it traced.
TRACE_ONLY_SHARE = 0.4


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn_child(workload: str, phase: str, seed: int, seconds: float, traced_share: float,
                quick: bool, out: Path) -> Dict[str, Any]:
    """Run ``child.py`` for one workload; its last stdout line is the result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--phase", phase,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--traced-share", repr(traced_share), "--out", str(out),
           "--t0", repr(time.monotonic())]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: str, quick: bool,
                 out: Path) -> Dict[str, Any]:
    """Set up :data:`SETUP_SAMPLES` times, measure once; returns the child's
    result with ``setup_s`` added to its end-to-end metrics."""
    setups = [
        spawn_child(workload, "setup", seed, 0.0, 0.0, quick, out)["setup_s"]
        for _ in range(0 if quick else SETUP_SAMPLES - 1)
    ]
    if trace == "1":
        seconds, share = seconds * TRACE_ONLY_SHARE, 1.0
    else:
        share = 0.25
    result = spawn_child(workload, "timed" if trace == "0" else "traced", seed, seconds,
                         share, quick, out)
    setups.append(result["setup_s"])
    result["setup_s_samples"] = setups
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["error_rate"] = result["failed"] / result["ops"]
    return result


def check_names(manifest: Dict[str, Any], result: Dict[str, Any]) -> None:
    """Fail when the run and ``BENCHMARK.json`` disagree on any metric name."""
    for section in ("end_to_end", "per_layer"):
        if section in result:
            declared = {m["name"] for m in manifest[section]}
            if declared != set(result[section]):
                raise BenchError(
                    f"{section} names differ from BENCHMARK.json: "
                    f"{sorted(declared ^ set(result[section]))}")


def fingerprint(args: argparse.Namespace) -> Dict[str, Any]:
    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                                  timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def print_result(manifest: Dict[str, Any], name: str, result: Dict[str, Any]) -> None:
    print(f"\n== {name}: {result['ops']} ops in {result['wall_s']:.2f} s "
          f"({result['blocks']} blocks), error_rate {result['error_rate']:.4f} "
          f"({result['failed']}/{result['ops']}), settle {result['settle_s']:.2f} s / "
          f"{result['settle_ops']} ops, drift_ratio {result['drift_ratio']:.3f}")
    for section in ("end_to_end", "per_layer"):
        for metric in manifest[section]:
            if metric["name"] in result.get(section, {}):
                note = f"  (n={result['ops']})" if metric["name"] == "latency_p95_ms" else ""
                print(f"  {metric['name']:<34}{result[section][metric['name']]:>14.4f} "
                      f"{metric['unit']}{note}")
    if "self_time" in result:
        rows = result["self_time"]["rows"]
        print(f"  self-time rows sum to {sum(rows.values()):.3f} ms of "
              f"{result['self_time']['op_wall_ms']:.3f} ms op wall; traced payloads "
              f"{'match' if result['traced_sha_match'] else 'DIFFER'}")


# ----------------------------------------------------------------------
def compare(manifest: Dict[str, Any], path_a: Path, path_b: Path) -> int:
    """One row per (workload, metric): is B worse than A by more than the bound?"""
    a, b = (json.loads(p.read_text())["workloads"] for p in (path_a, path_b))
    regressions = 0
    for name in (w["name"] for w in manifest["workloads"]):
        if name not in a or name not in b:
            continue
        for metric in manifest["end_to_end"]:
            old, new = (r[name]["end_to_end"][metric["name"]] for r in (a, b))
            worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
            verdict = ("regressed" if worse > metric["bound"]
                       else "improved" if worse < -metric["bound"] else "ok")
            regressions += verdict == "regressed"
            print(f"{name:<16}{metric['name']:<22}{old:>12.4f}{new:>12.4f}"
                  f"{100 * worse:>+8.1f} % worse (bound {100 * metric['bound']:.0f} %)  {verdict}")
        old, new = a[name]["error_rate"], b[name]["error_rate"]
        verdict = "regressed" if new > old else "ok"
        regressions += verdict == "regressed"
        print(f"{name:<16}{'error_rate':<22}{old:>12.4f}{new:>12.4f}{'':>36}{verdict}")
        same = a[name]["payload_sha256"] == b[name]["payload_sha256"]
        print(f"{name:<16}{'payload_sha256':<22}{'identical' if same else 'differs':>24}")
    return 1 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    manifest = json.loads(MANIFEST.read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]),
                        help="length of the timed phase")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=["0", "1", "both"],
                        help="0: timed run; 1: traced run, per-layer metrics only; "
                             "no value: timed run, then a traced pass over its first quarter")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one set-up, no settle, two blocks of 5")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(manifest, *args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    results: Dict[str, Any] = {}
    try:
        for name in args.workload or names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         args.quick, args.out)
            check_names(manifest, results[name])
            print_result(manifest, name, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    (args.out / "results.json").write_text(
        json.dumps({"fingerprint": fingerprint(args), "workloads": results}, indent=1) + "\n")

    if len(results) == 1:
        (result,) = results.values()
        section = "per_layer" if args.trace == "1" else "end_to_end"
        units = {m["name"]: m["unit"] for m in manifest[section]}
        attempted = result["ops"] + result.get("traced_ops", 0)
        failed = result["failed"] + result.get("traced_failed", 0)
        print(json.dumps({
            "correct": failed == 0 and result.get("traced_sha_match", True),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in result[section].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

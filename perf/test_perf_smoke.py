"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Not part of the tier-1 suite (``testpaths = ["tests"]``).  Runs the whole
benchmark twice in ``--quick`` mode and checks its contract, not its
numbers: schema, names, completeness, exact repeatability of the seeded
checksums, and that the trace files are valid Chrome traces.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perf" / "bench.py"), *argv], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two ``--quick --trace`` runs of the same seed: (results, seconds, out dir) each."""
    runs = []
    for tag in "ab":
        out = tmp_path_factory.mktemp(f"perf-{tag}")
        t0 = time.monotonic()
        done = bench("--quick", "--trace", "--seed", "7", "--out", str(out))
        assert done.returncode == 0, done.stderr[-2000:]
        runs.append((json.loads((out / "results.json").read_text()), time.monotonic() - t0, out))
    return runs


def test_manifest_schema():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert MANIFEST["paths"] == ["perf"]
    assert len(WORKLOADS) == 6
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert len(MANIFEST["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(m["better"] in ("lower", "higher")
               for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_quick_run_is_fast_and_complete(quick_runs):
    results, seconds, _ = quick_runs[0]
    assert seconds < 30
    for key in ("git_sha", "git_dirty", "python", "numpy", "cpu_count", "affinity", "seed"):
        assert key in results["fingerprint"]
    assert list(results["workloads"]) == WORKLOADS
    for name, r in results["workloads"].items():
        assert set(r["end_to_end"]) == {m["name"] for m in MANIFEST["end_to_end"]}, name
        assert set(r["per_layer"]) == {m["name"] for m in MANIFEST["per_layer"]}, name
        assert r["error_rate"] == 0 and r["traced_failed"] == 0, name
        assert all(v > 0 for v in r["end_to_end"].values()), name
        for key in ("mode", "parallelism", "ops", "settle_s", "settle_ops", "drift_ratio"):
            assert key in r, (name, key)


def test_seeded_checksums_repeat_exactly(quick_runs):
    (a, _, _), (b, _, _) = quick_runs
    for name in WORKLOADS:
        ra, rb = a["workloads"][name], b["workloads"][name]
        assert ra["payload_sha256"] == rb["payload_sha256"], name
        for metric in ("accuracy", "tests_per_individual"):
            assert ra["end_to_end"][metric] == rb["end_to_end"][metric], (name, metric)


def test_traces_validate_and_self_time_adds_up(quick_runs):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.chrome import validate_chrome_trace

    results, _, out = quick_runs[0]
    for name, r in results["workloads"].items():
        doc = json.loads((out / f"trace-{name}.json").read_text())
        assert validate_chrome_trace(doc) > 0
        assert r["traced_sha_match"], name
        table = r["self_time"]
        assert sum(table["rows"].values()) == pytest.approx(table["op_wall_ms"], rel=0.05), name
    assert results["workloads"]["sparse_n120"]["per_layer"]["engine.jobs_per_op"] == 0


def test_compare_judges_every_pair(quick_runs):
    (_, _, out_a), (_, _, out_b) = quick_runs
    done = bench("--compare", str(out_a / "results.json"), str(out_b / "results.json"))
    assert done.returncode in (0, 1), done.stderr
    rows = [line for line in done.stdout.splitlines() if line.split()[-1] in
            ("ok", "regressed", "improved")]
    assert len(rows) == len(WORKLOADS) * (len(MANIFEST["end_to_end"]) + 1)
    assert done.stdout.count("identical") == len(WORKLOADS)


def test_driver_line_and_refusal_without_the_program(tmp_path):
    done = bench("--quick", "--workload", "dense_small", "--seed", "1", "--seconds", "1",
                 "--trace", "1", "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in MANIFEST["per_layer"]}

    # only BENCHMARK.json and the benchmark's own files: no result, non-zero exit
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench("--workload", "dense_small", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    assert done.returncode != 0 and not done.stdout.strip()


def test_repo_glob_collects_no_benchmark_file():
    assert not list(HERE.glob("bench_*.py"))

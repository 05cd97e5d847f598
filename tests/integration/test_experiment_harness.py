"""The experiment harness itself (micro-scale run of every Rn)."""

import json
from pathlib import Path

import pytest

from benchmarks.run_experiments import EXPERIMENTS, SCALES, main
from repro.engine import Context

MICRO = {
    "r123_baseline_ns": [8],
    "r123_sbgt_ns": [8, 10],
    "r4_n": 10,
    "r4_workers": [1, 2],
    "r5_prevalences": [0.02, 0.2],
    "r5_reps": 2,
    "r6_reps": 2,
    "r7_dilutions": [0.0, 0.5],
    "r7_reps": 2,
    "r8_n": 10,
    "repeats": 1,
}


@pytest.fixture(scope="module")
def harness_ctx():
    with Context(mode="threads", parallelism=2) as c:
        yield c


class TestExperimentFunctions:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_runs_and_renders(self, harness_ctx, name):
        table = EXPERIMENTS[name](MICRO, harness_ctx)
        assert name.upper().split("R")[-1][0].isdigit()
        assert "—" in table  # has a title
        assert "|" in table  # has columns

    def test_r1_has_speedup_column(self, harness_ctx):
        assert "sbgt/pydict" in EXPERIMENTS["r1"](MICRO, harness_ctx)

    def test_r4_reports_efficiency(self, harness_ctx):
        out = EXPERIMENTS["r4"](MICRO, harness_ctx)
        assert "efficiency" in out
        assert "100.0 %".replace(" ", "") in out.replace(" ", "")

    def test_r5_includes_all_policies(self, harness_ctx):
        out = EXPERIMENTS["r5"](MICRO, harness_ctx)
        for col in ("bha", "dorfman", "array", "individual", "shannon"):
            assert col in out


class TestCli:
    def test_scales_registered(self):
        assert set(SCALES) == {"small", "full"}

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["r99"])

    def test_out_file_written(self, tmp_path, monkeypatch):
        # Patch the small scale down to the micro config for speed.
        monkeypatch.setitem(SCALES, "small", MICRO)
        out = tmp_path / "results.txt"
        engine_json = tmp_path / "BENCH_engine.json"
        # The tracked perf record at the repo root belongs to explicit
        # benchmark runs; a test run must leave its bytes alone.
        tracked = Path(__file__).resolve().parents[2] / "BENCH_engine.json"
        before = tracked.read_bytes()
        assert main(["r6", "--out", str(out), "--engine-json", str(engine_json)]) == 0
        assert "R6" in out.read_text()
        assert json.loads(engine_json.read_text())
        assert tracked.read_bytes() == before

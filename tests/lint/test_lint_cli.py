"""CLI surface: exit codes, formats, --explain, and the self-lint gate
(`python -m repro lint src examples benchmarks` must be clean)."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_lint(*argv: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )


class TestExitCodes:
    def test_clean_file_exits_zero(self):
        proc = run_lint(str(FIXTURES / "closure_c101_good.py"))
        assert proc.returncode == 0, proc.stderr
        assert "clean: 0 findings" in proc.stdout

    def test_findings_exit_one(self):
        proc = run_lint(str(FIXTURES / "closure_c104_bad.py"))
        assert proc.returncode == 1
        assert "C104" in proc.stdout

    def test_missing_path_exits_two(self):
        proc = run_lint("no/such/dir")
        assert proc.returncode == 2
        assert "no such file or directory" in proc.stderr

    def test_unknown_rule_exits_two(self):
        proc = run_lint("--select", "C999", str(FIXTURES / "closure_c101_good.py"))
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr


class TestFormats:
    def test_json_format_parses_and_matches_schema(self):
        proc = run_lint("--format", "json", str(FIXTURES / "closure_c104_bad.py"))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["version"] == 1
        assert payload["summary"]["by_rule"] == {"C104": 4}

    def test_select_filters_findings(self):
        proc = run_lint("--select", "C102", str(FIXTURES / "closure_c104_bad.py"))
        assert proc.returncode == 0


class TestExplain:
    def test_explain_prints_rationale_and_examples(self):
        proc = run_lint("--explain", "C102")
        assert proc.returncode == 0
        for marker in ("C102 — closure-captures-unpicklable", "Why:", "Bad:",
                       "Good:", "Fix hint:", "Suppress with:"):
            assert marker in proc.stdout

    def test_explain_all_covers_every_rule(self):
        proc = run_lint("--explain", "all")
        assert proc.returncode == 0
        for rule in ("C101", "C102", "C103", "C104", "E201", "E202", "E203"):
            assert f"{rule} — " in proc.stdout

    def test_explain_unknown_rule_exits_two(self):
        proc = run_lint("--explain", "Z999")
        assert proc.returncode == 2


class TestSelfLint:
    def test_repo_sources_are_clean(self):
        proc = run_lint("src", "examples", "benchmarks")
        assert proc.returncode == 0, f"self-lint found defects:\n{proc.stdout}"
        assert "clean: 0 findings" in proc.stdout

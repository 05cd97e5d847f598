"""SARIF output, the plain exit-code gate and skipped files."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.lint import LintFinding, format_sarif, lint_paths

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ROOT = pathlib.Path(__file__).resolve().parents[2]


def run_lint(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def _finding(rule="C104", file="src/repro/sbgt/x.py", line=3, col=0,
             message="unseeded draw at line 3"):
    return LintFinding(rule=rule, file=file, line=line, col=col, message=message)


class TestSarif:
    def _log(self, findings, files_checked=1):
        return json.loads(format_sarif(findings, files_checked))

    def test_schema_sanity(self):
        log = self._log([_finding()])
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        for descriptor in driver["rules"]:
            assert descriptor["shortDescription"]["text"]
            assert descriptor["defaultConfiguration"]["level"] in ("warning", "error")

    def test_result_shape_and_rule_index(self):
        log = self._log([_finding(line=7, col=4)])
        (run,) = log["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "C104"
        assert result["level"] == "warning"
        driver_rules = run["tool"]["driver"]["rules"]
        assert driver_rules[result["ruleIndex"]]["id"] == "C104"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 7
        assert region["startColumn"] == 5  # SARIF columns are 1-based

    def test_x001_maps_to_error_level(self):
        log = self._log([_finding(rule="X001", message="cannot parse")])
        assert log["runs"][0]["results"][0]["level"] == "error"

    def test_chain_and_hint_folded_into_message(self):
        f = LintFinding(rule="C104", file="f.py", line=1, col=0,
                        message="msg", chain=("hop one",), hint="do better")
        log = self._log([f])
        text = log["runs"][0]["results"][0]["message"]["text"]
        assert "via hop one" in text
        assert "fix: do better" in text

    def test_empty_run_still_valid(self):
        log = self._log([], files_checked=5)
        assert log["runs"][0]["results"] == []
        assert log["runs"][0]["properties"]["filesChecked"] == 5

    def test_cli_format_sarif(self):
        proc = run_lint("--format", "sarif", str(FIXTURES / "closure_c104_bad.py"))
        assert proc.returncode == 1
        log = json.loads(proc.stdout)
        assert log["version"] == "2.1.0"
        assert any(r["ruleId"] == "C104" for r in log["runs"][0]["results"])


class TestPlainGate:
    """The exit code is the gate: no baseline, pool or cache flags."""

    @pytest.mark.parametrize("flag", ["--jobs", "--cache", "--baseline", "--write-baseline"])
    def test_cli_removed_flag_is_a_usage_error(self, flag):
        proc = run_lint(flag, "1", str(FIXTURES / "closure_c101_good.py"))
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr


class TestSkippedFiles:
    def test_unparsable_file_becomes_x001_and_exit_two(self, tmp_path):
        good = tmp_path / "repro" / "sbgt" / "gen.py"
        good.parent.mkdir(parents=True)
        good.write_text("import numpy as np\ng = np.random.default_rng()\n")
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        proc = run_lint(str(tmp_path))
        assert proc.returncode == 2
        assert "X001" in proc.stdout
        # the rest of the tree was still analyzed
        assert "D301" in proc.stdout

    def test_x001_not_suppressible(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("# repro: lint-ignore[X001]\ndef oops(:\n")
        findings, _ = lint_paths([str(tmp_path)])
        assert [f.rule for f in findings] == ["X001"]

    def test_usage_errors_still_raise(self, tmp_path):
        from repro.lint import LintError

        with pytest.raises(LintError):
            lint_paths(["no/such/path"])
        with pytest.raises(LintError):
            lint_paths([str(tmp_path)], select=["Z999"])

"""SARIF output, finding baselines, parallel analysis and the cache."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.lint import (
    LintFinding,
    filter_new_findings,
    format_sarif,
    lint_paths,
    load_baseline,
    write_baseline,
)
from repro.lint.baseline import fingerprint

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


class TestBaseline:
    def test_fingerprint_is_position_independent(self):
        a = _finding(line=3, message="acquired line 3")
        b = _finding(line=40, message="acquired line 40")
        assert fingerprint(a) == fingerprint(b)

    def test_fingerprint_distinguishes_rule_file_message(self):
        base = _finding()
        assert fingerprint(base) != fingerprint(_finding(rule="C103"))
        assert fingerprint(base) != fingerprint(_finding(file="other.py"))
        assert fingerprint(base) != fingerprint(_finding(message="different"))

    def test_roundtrip_and_filtering(self, tmp_path):
        known = _finding()
        path = tmp_path / "base.json"
        write_baseline(str(path), [known])
        baseline = load_baseline(str(path))
        assert filter_new_findings([known], baseline) == []
        fresh = _finding(rule="C103", message="new problem")
        assert filter_new_findings([known, fresh], baseline) == [fresh]

    def test_counts_gate_duplicate_findings(self, tmp_path):
        one = _finding()
        path = tmp_path / "base.json"
        write_baseline(str(path), [one])
        baseline = load_baseline(str(path))
        # two identical findings, baseline covers one -> one is new
        assert len(filter_new_findings([one, one], baseline)) == 1

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_baseline(str(path))
        path.write_text(json.dumps({"version": 99, "fingerprints": {}}))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_cli_write_then_gate(self, tmp_path):
        bad = FIXTURES / "closure_c104_bad.py"
        base = tmp_path / "lint-baseline.json"
        proc = run_lint(str(bad), "--write-baseline", str(base))
        assert proc.returncode == 0, proc.stderr
        assert "recorded" in proc.stdout
        proc = run_lint(str(bad), "--baseline", str(base))
        assert proc.returncode == 0, proc.stdout
        assert "clean: 0 findings" in proc.stdout
        assert "known finding(s) suppressed" in proc.stderr

    def test_cli_missing_baseline_exits_two(self):
        proc = run_lint(str(FIXTURES / "closure_c101_good.py"),
                        "--baseline", "no/such/baseline.json")
        assert proc.returncode == 2
        assert "cannot load baseline" in proc.stderr

    def test_cli_baseline_and_write_conflict(self):
        proc = run_lint(str(FIXTURES / "closure_c101_good.py"),
                        "--baseline", "a.json", "--write-baseline", "b.json")
        assert proc.returncode == 2


class TestJobsAndCache:
    def test_parallel_matches_serial(self):
        serial, n1 = lint_paths([str(FIXTURES)])
        parallel, n2 = lint_paths([str(FIXTURES)], jobs=3)
        assert n1 == n2
        assert serial == parallel
        assert serial  # the fixtures directory is full of findings

    def test_cache_reuse_and_invalidation(self, tmp_path):
        src = tmp_path / "repro" / "sbgt" / "gen.py"
        src.parent.mkdir(parents=True)
        src.write_text("import numpy as np\ng = np.random.default_rng()\n")
        cache = tmp_path / "cache.json"

        first, _ = lint_paths([str(tmp_path)], cache_path=str(cache))
        assert [f.rule for f in first] == ["D301"]
        payload = json.loads(cache.read_text())
        assert str(src) in payload["entries"]

        # warm run: identical findings out of the cache
        second, _ = lint_paths([str(tmp_path)], cache_path=str(cache))
        assert second == first

        # content change invalidates the entry
        src.write_text("import numpy as np\ng = np.random.default_rng(42)\n")
        third, _ = lint_paths([str(tmp_path)], cache_path=str(cache))
        assert third == []

    def test_cache_keyed_on_config(self, tmp_path):
        src = tmp_path / "repro" / "sbgt" / "gen.py"
        src.parent.mkdir(parents=True)
        src.write_text("import numpy as np\ng = np.random.default_rng()\n")
        cache = tmp_path / "cache.json"
        lint_paths([str(tmp_path)], cache_path=str(cache))
        with_ignore, _ = lint_paths(
            [str(tmp_path)], ignore=["D301"], cache_path=str(cache)
        )
        assert with_ignore == []

    def test_corrupt_cache_is_cold_not_fatal(self, tmp_path):
        src = tmp_path / "repro" / "sbgt" / "gen.py"
        src.parent.mkdir(parents=True)
        src.write_text("import numpy as np\ng = np.random.default_rng()\n")
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        findings, _ = lint_paths([str(tmp_path)], cache_path=str(cache))
        assert [f.rule for f in findings] == ["D301"]

    def test_cli_jobs_zero_rejected(self):
        proc = run_lint("--jobs", "0", str(FIXTURES / "closure_c101_good.py"))
        assert proc.returncode == 2


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

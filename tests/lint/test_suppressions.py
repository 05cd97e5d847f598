"""Suppression directives and select/ignore filtering."""

from __future__ import annotations

import pytest

from repro.lint import LintError, analyze_source


class TestSuppressionDirectives:
    def test_fixture_covers_every_position(self, lint_fixture):
        # Five seeded C104s: four suppressed (same-line bracket, standalone
        # comment, bare ignore, comma list), one under the *wrong* rule id.
        findings = lint_fixture("suppressed.py")
        assert [f.rule for f in findings] == ["C104"]
        assert findings[0].line == 14

    def test_wrong_rule_id_does_not_suppress(self):
        src = "import random\nrdd.map(lambda x: random.random()).collect()  # repro: lint-ignore[C103]\n"
        assert len(analyze_source(src)) == 1

    def test_bare_ignore_suppresses_all_rules(self):
        src = "import random\nrdd.map(lambda x: random.random()).collect()  # repro: lint-ignore\n"
        assert analyze_source(src) == []


class TestAnchoredSuppression:
    """Findings anchored away from their report line (def/decorator lines)."""

    BODY = (
        "import threading\n"
        "lk = threading.Lock()\n"
        "{decorator}"
        "def f(x):{trailer}\n"
        "    return (x, lk)\n"
        "rdd.map(f).collect()\n"
    )

    def test_capture_finding_fires_without_ignore(self):
        src = self.BODY.format(decorator="", trailer="")
        (finding,) = analyze_source(src)
        assert finding.rule == "C102"
        assert finding.line == 4  # reported at the use site in the body

    def test_def_line_ignore_covers_body_capture(self):
        src = self.BODY.format(
            decorator="", trailer="  # repro: lint-ignore[C102]"
        )
        assert analyze_source(src) == []

    def test_decorator_line_ignore_covers_body_capture(self):
        src = self.BODY.format(
            decorator="@functools.cache  # repro: lint-ignore[C102]\n",
            trailer="",
        )
        assert analyze_source(src) == []

    def test_decorated_def_line_ignore_still_works(self):
        src = self.BODY.format(
            decorator="@functools.cache\n",
            trailer="  # repro: lint-ignore[C102]",
        )
        assert analyze_source(src) == []

    def test_wrong_rule_on_def_line_does_not_suppress(self):
        src = self.BODY.format(
            decorator="", trailer="  # repro: lint-ignore[C101]"
        )
        assert [f.rule for f in analyze_source(src)] == ["C102"]

    def test_comma_list_covers_mixed_rules_on_one_line(self):
        src = (
            "import threading\n"
            "import random\n"
            "lk = threading.Lock()\n"
            "def f(x):\n"
            "    return (x, lk, random.random())  # repro: lint-ignore[C102, C104]\n"
            "rdd.map(f).collect()\n"
        )
        assert analyze_source(src) == []


class TestSelectIgnore:
    SRC = (
        "import random\n"
        "import threading\n"
        "lk = threading.Lock()\n"
        "def f(x):\n"
        "    with lk:\n"
        "        return x + random.random()\n"
        "rdd.map(f).collect()\n"
    )

    def test_unfiltered_reports_both(self):
        assert {f.rule for f in analyze_source(self.SRC)} == {"C102", "C104"}

    def test_select_keeps_only_listed(self):
        assert {f.rule for f in analyze_source(self.SRC, select=["C104"])} == {"C104"}

    def test_ignore_drops_listed(self):
        assert {f.rule for f in analyze_source(self.SRC, ignore=["C104"])} == {"C102"}

    def test_unknown_rule_id_is_usage_error(self):
        with pytest.raises(LintError, match="unknown rule"):
            analyze_source(self.SRC, select=["C999"])
        with pytest.raises(LintError, match="unknown rule"):
            analyze_source(self.SRC, ignore=["nope"])

    def test_rule_ids_normalized_case_insensitively(self):
        assert {f.rule for f in analyze_source(self.SRC, select=["c102"])} == {"C102"}

    def test_syntax_error_is_lint_error(self):
        with pytest.raises(LintError, match="cannot parse"):
            analyze_source("def broken(:\n")

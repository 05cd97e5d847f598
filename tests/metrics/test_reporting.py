"""ASCII table formatting."""

import pytest

from repro.metrics.reporting import format_table


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        out = format_table(["a", "b"], [[1, 2], [3, 4]])
        assert "a" in out and "b" in out
        assert "3" in out and "4" in out

    def test_title_first_line(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_alignment_consistent(self):
        out = format_table(["col"], [["short"], ["much longer cell"]])
        lines = out.splitlines()
        assert len(set(len(l) for l in lines[-2:])) == 1

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        out = format_table(["v"], [[0.123456], [12345.6]])
        assert "0.123" in out
        assert "1.23e+04" in out or "12345" in out


"""Tests for the report table."""

import pytest

from repro.errors import ReproError
from repro.stats.report import Table, format_cycles


class TestReportFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [(123.4, "123.4"), (12_345.0, "12.3k"), (2_500_000.0, "2.50M")],
    )
    def test_format_cycles(self, value, expected):
        assert format_cycles(value) == expected

    def test_table_needs_columns(self):
        with pytest.raises(ReproError):
            Table("t", [])

    def test_row_arity_checked(self):
        t = Table("t", ["a"])
        with pytest.raises(ReproError):
            t.add_row(1, 2)

    def test_render_alignment(self):
        t = Table("t", ["name", "value"])
        t.add_row("x", 1)
        t.add_row("longer", 123456)
        lines = t.render().splitlines()
        assert len({len(line) for line in lines[2:5]}) == 1  # aligned

"""Tests for the experiment report formatting."""

import numpy as np

from repro.experiments.report import ExperimentTable, format_cell, format_table


class TestFormatCell:
    def test_booleans_render_as_marks(self):
        assert format_cell(True) == "Y"
        assert format_cell(False) == "x"
        # A predicate over numpy values yields numpy booleans.
        assert format_cell(np.bool_(True)) == "Y"
        assert format_cell(np.bool_(False)) == "x"

    def test_floats_compact(self):
        assert format_cell(0.123456) == "0.1235"
        assert format_cell(1234567.0) == "1.235e+06"
        assert format_cell(0.0000005) == "5.000e-07"
        assert format_cell(0.0) == "0"

    def test_strings_and_ints_pass_through(self):
        assert format_cell("abc") == "abc"
        assert format_cell(42) == "42"


class TestFormatTable:
    def test_alignment(self):
        text = format_table(("a", "bbb"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert lines[0].startswith("a  ")
        assert lines[1] == "---  ---"
        assert lines[2].split() == ["1", "2"]

    def test_indent(self):
        text = format_table(("h",), [(1,)], indent="  ")
        assert all(line.startswith("  ") for line in text.splitlines())


class TestExperimentTable:
    def test_roundtrip(self):
        table = ExperimentTable("Fig X", "demo", ("id", "value"))
        table.add_row("a", 1.5)
        table.add_row("b", 2.5)
        table.add_note("hello")
        text = table.to_text()
        assert "== Fig X: demo ==" in text
        assert "note: hello" in text
        assert "1.5" in text

    def test_column_extraction(self):
        table = ExperimentTable("T", "t", ("id", "value"))
        table.add_row("a", 1)
        table.add_row("b", 2)
        assert table.column("value") == [1, 2]
        assert table.column("id") == ["a", "b"]


class TestRenderSeries:
    def make_table(self):
        table = ExperimentTable("T", "t", ("id", "value"))
        table.add_row("a", 4.0)
        table.add_row("b", 2.0)
        table.add_row("c", 0.0)
        return table

    def test_bars_scale_to_peak(self):
        art = self.make_table().render_series("id", "value", width=8)
        lines = art.splitlines()
        assert lines[1].count("#") == 8   # the peak
        assert lines[2].count("#") == 4   # half the peak
        assert lines[3].count("#") == 0

    def test_non_numeric_cells_skipped(self):
        table = ExperimentTable("T", "t", ("id", "value"))
        table.add_row("a", "n/a")
        table.add_row("b", 1.5)
        art = table.render_series("id", "value")
        assert "n/a" not in art
        assert "1.5" in art

    def test_empty_numeric_column(self):
        table = ExperimentTable("T", "t", ("id", "value"))
        table.add_row("a", "x")
        assert "no numeric" in table.render_series("id", "value")

    def test_booleans_excluded(self):
        table = ExperimentTable("T", "t", ("id", "flag"))
        table.add_row("a", True)
        assert "no numeric" in table.render_series("id", "flag")

"""Tests for text table rendering."""

from __future__ import annotations

import pytest

from repro.utils.tables import TextTable, format_float


class TestFormatFloat:
    def test_integral_float_trims_zeros(self):
        assert format_float(1.0) == "1"

    def test_small_value_scientific(self):
        assert "e" in format_float(1e-7)

    def test_large_value_scientific(self):
        assert "e" in format_float(1e9)

    def test_midrange_fixed_point(self):
        assert format_float(0.4674) == "0.4674"

    def test_nan(self):
        assert format_float(float("nan")) == "nan"

    def test_zero(self):
        assert format_float(0.0) == "0"


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable(["name", "value"])
        table.add_row(["alpha", 1.0])
        table.add_row(["b", 22.5])
        rendered = table.render()
        lines = rendered.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("name")
        assert "alpha" in lines[2]

    def test_title_rendered(self):
        table = TextTable(["x"], title="My Title")
        table.add_row([1.0])
        assert table.render().startswith("My Title")

    def test_wrong_cell_count_rejected(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_non_float_cells_stringified(self):
        table = TextTable(["a"])
        table.add_row([(1, 2)])
        assert "(1, 2)" in table.render()

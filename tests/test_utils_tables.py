"""Unit tests for repro.utils.tables."""

import pytest

from repro.utils.tables import TextTable, format_float, format_si


class TestFormatFloat:
    def test_moderate(self):
        assert format_float(1234.5678, 2) == "1234.57"

    def test_zero(self):
        assert format_float(0.0) == "0"

    def test_large_scientific(self):
        assert "e" in format_float(1e9)

    def test_small_scientific(self):
        assert "e" in format_float(1e-9)

    def test_nan(self):
        assert format_float(float("nan")) == "nan"


class TestFormatSI:
    def test_tera(self):
        assert format_si(19.5e12, "FLOP/s") == "19.50 TFLOP/s"

    def test_giga(self):
        assert format_si(1935e9, "B/s") == "1.94 TB/s"

    def test_plain(self):
        assert format_si(12.0, "B") == "12.00 B"


class TestTextTable:
    def test_render_alignment(self):
        t = TextTable(["a", "bb"])
        t.add_row([1, "x"])
        t.add_row(["long", "y"])
        lines = t.render().splitlines()
        assert lines[0].startswith("a")
        # all rows same width
        assert len({len(line) for line in lines}) == 1

    def test_title(self):
        t = TextTable(["a"], title="My Table")
        t.add_row([1])
        out = t.render()
        assert out.startswith("My Table\n========")

    def test_wrong_cell_count(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_floats_formatted(self):
        t = TextTable(["v"])
        t.add_row([1.23456])
        assert "1.235" in t.render()

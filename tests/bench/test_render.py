"""Tests for the bench renderer and shape helpers."""

import pytest

from repro.bench.render import (
    crossover_x,
    fmt,
    render_table,
    who_wins,
)

ROWS = [
    {"x": 1, "a_ms": 10.0, "b_ms": 5.0, "who": "a"},
    {"x": 2, "a_ms": 8.0, "b_ms": 6.0, "who": "a"},
    {"x": 3, "a_ms": 4.0, "b_ms": 7.0, "who": "b"},
]


class TestFmt:
    def test_floats_trimmed(self):
        assert fmt(1.23456) == "1.235"
        assert fmt(0.0) == "0"

    def test_extremes_use_scientific(self):
        assert "e" in fmt(1234567.0)

    def test_bools(self):
        assert fmt(True) == "yes"
        assert fmt(False) == "no"

    def test_strings_pass_through(self):
        assert fmt("label") == "label"


class TestRenderTable:
    def test_contains_all_cells(self):
        text = render_table(ROWS, "Title")
        assert "Title" in text
        assert "a_ms" in text
        assert "10" in text

    def test_columns_aligned(self):
        lines = render_table(ROWS).splitlines()
        header, rule = lines[0], lines[1]
        assert len(header) == len(rule)

    def test_explicit_column_selection(self):
        text = render_table(ROWS, columns=["x", "who"])
        assert "a_ms" not in text

    def test_empty_rows(self):
        assert "no rows" in render_table([], "T")


class TestShapeHelpers:
    def test_who_wins_lower(self):
        assert who_wins(ROWS, "who", "a_ms") == "b"

    def test_who_wins_higher(self):
        assert who_wins(ROWS, "who", "a_ms", lower_is_better=False) == "a"

    def test_who_wins_empty_rejected(self):
        with pytest.raises(ValueError):
            who_wins([], "who", "a_ms")

    def test_crossover(self):
        assert crossover_x(ROWS, "x", "a_ms", "b_ms") == 3

    def test_no_crossover(self):
        rows = [{"x": 1, "a": 9, "b": 1}, {"x": 2, "a": 9, "b": 1}]
        assert crossover_x(rows, "x", "a", "b") is None

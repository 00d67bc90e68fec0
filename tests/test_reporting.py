"""Tests for ASCII reporting and breakdown assembly."""

import numpy as np
import pytest

from repro.analysis.breakdown import ablation_breakdown, normalize_shares, stack_series
from repro.analysis.reporting import (
    ascii_bar_chart,
    ascii_table,
    format_seconds,
    write_csv,
)


class TestFormatSeconds:
    def test_units(self):
        assert format_seconds(2.5) == "2.5 s"
        assert format_seconds(0.0025) == "2.5 ms"
        assert format_seconds(2.5e-6) == "2.5 us"
        assert format_seconds(2.5e-9) == "2.5 ns"

    def test_exact_zero_is_seconds(self):
        # 0.0 used to fall through every unit and render as "0 ns".
        assert format_seconds(0.0) == "0 s"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_seconds(-1.0)


class TestAsciiTable:
    def test_renders_aligned(self):
        out = ascii_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "333" in out

    def test_title(self):
        out = ascii_table(["x"], [[1]], title="Table 1")
        assert out.startswith("Table 1")

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_table(["a", "b"], [[1]])


class TestAsciiBarChart:
    def test_linear(self):
        out = ascii_bar_chart(["a", "b"], [1.0, 2.0])
        lines = out.splitlines()
        assert lines[1].count("#") > lines[0].count("#")

    def test_log_scale_spans_decades(self):
        out = ascii_bar_chart(
            ["mpe", "cg1", "cg6"], [0.04, 12.5, 58.6], log=True, unit=" GB/s"
        )
        assert "58.6 GB/s" in out
        lines = out.splitlines()
        assert lines[0].count("#") < lines[1].count("#") < lines[2].count("#")

    def test_empty(self):
        assert "(empty)" in ascii_bar_chart([], [])

    def test_mismatch(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [-1.0])


class TestWriteCsv:
    def test_roundtrip(self, tmp_path):
        p = write_csv(tmp_path / "x" / "out.csv", ["a", "b"], [[1, 2], [3, 4]])
        text = p.read_text().strip().splitlines()
        assert text[0] == "a,b"
        assert text[2] == "3,4"


class TestBreakdowns:
    def test_normalize(self):
        out = normalize_shares({"a": 1.0, "b": 3.0})
        assert out["a"] == pytest.approx(0.25)
        assert sum(out.values()) == pytest.approx(1.0)

    def test_normalize_zero_total(self):
        assert normalize_shares({"a": 0.0}) == {"a": 0.0}

    def test_stack_series_orders_by_total(self):
        xs, cats, series = stack_series(
            [(1, {"a": 1.0, "b": 9.0}), (2, {"b": 1.0})]
        )
        assert xs == [1, 2]
        assert cats[0] == "b"
        assert series["a"] == [pytest.approx(0.1), 0.0]

    def test_ablation_breakdown_canonical_order(self):
        labels, cats, series = ablation_breakdown(
            [
                ("Baseline", {"EH2EH push": 1.0, "other": 0.5}),
                ("+ Seg", {"EH2EH pull": 0.2, "other": 0.5}),
            ]
        )
        assert labels == ["Baseline", "+ Seg"]
        assert cats.index("EH2EH pull") < cats.index("EH2EH push")
        assert series["EH2EH push"] == [1.0, 0.0]

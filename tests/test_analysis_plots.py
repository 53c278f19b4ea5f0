"""Unit tests for the terminal plotting utilities."""

from __future__ import annotations

from repro.analysis.plots import sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series_monotone_marks(self):
        marks = sparkline([0.0, 0.5, 1.0])
        assert marks[0] <= marks[1] <= marks[2]

    def test_empty(self):
        assert sparkline([]) == ""

    def test_scaled_to_maximum(self):
        half = sparkline([0.5], maximum=1.0)
        full = sparkline([1.0], maximum=1.0)
        assert half < full

    def test_zero_max(self):
        assert sparkline([0.0, 0.0]) == "▁▁"

"""Unit tests for the figure-data assembly and text reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.figures import (
    fig6_runtime_comparison,
    fig7_cost_and_memory,
    fig8_cost_breakdown,
    fig9_admission_ratios,
    fig11_emulation_latency,
)
from repro.analysis.report import format_series, format_table


class TestFig6Data:
    def test_series_shapes(self):
        data = fig6_runtime_comparison(max_tasks=2)
        assert data["num_tasks"] == [1, 2]
        assert len(data["offloadnn_s"]) == 2
        assert all(t > 0 for t in data["optimum_s"])

    def test_optimum_slower_at_two_tasks(self):
        data = fig6_runtime_comparison(max_tasks=2)
        assert data["optimum_s"][1] > data["offloadnn_s"][1]


class TestFig7Fig8Data:
    def test_fig7_normalization(self):
        data = fig7_cost_and_memory(max_tasks=2)
        assert max(data["offloadnn_cost"] + data["optimum_cost"]) == pytest.approx(1.0)
        assert all(0 <= m <= 1 for m in data["offloadnn_memory"])

    def test_fig8_panels_present(self):
        data = fig8_cost_breakdown(max_tasks=2)
        assert len(data) == 9
        assert data["offloadnn_weighted_admission"][0] > 0


class TestFig9Data:
    def test_three_rates_twenty_tasks(self):
        data = fig9_admission_ratios()
        assert set(data) == {"low", "medium", "high"}
        for series in data.values():
            assert len(series["offloadnn"]) == 20
            assert len(series["semoran"]) == 20


class TestFig11Data:
    def test_structure(self):
        data = fig11_emulation_latency(num_tasks=2, duration_s=4.0)
        assert set(data["series"]) == {1, 2}
        entry = data["series"][1]
        assert len(entry["times_s"]) == len(entry["latency_s"])
        assert entry["limit_s"] == pytest.approx(0.2)
        assert isinstance(data["within_limits"], bool)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["long-name", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "2.500" in lines[3]

    def test_format_series(self):
        assert format_series("x", [1.0, 2.0], precision=1) == "x: [1.0, 2.0]"

"""Tests for the sensitivity sweeps."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import (
    sweep_memory_budget,
    sweep_radio_budget,
    sweep_request_rate,
)


class TestRadioSweep:
    def test_admission_monotone_in_rbs(self):
        points = sweep_radio_budget([25, 50, 100, 200])
        admissions = [p.weighted_admission for p in points]
        assert all(a <= b + 1e-9 for a, b in zip(admissions, admissions[1:]))

    def test_saturation_above_needed_pool(self):
        """Beyond the demand point, more RBs change nothing."""
        points = sweep_radio_budget([150, 300])
        assert points[0].weighted_admission == pytest.approx(
            points[1].weighted_admission
        )

    def test_scarcity_cuts_admission(self):
        points = sweep_radio_budget([10, 100])
        assert points[0].admitted_tasks < points[1].admitted_tasks


class TestMemorySweep:
    def test_sharing_makes_memory_non_binding_early(self):
        """With block sharing/pruning, even a quarter of the Table IV
        budget supports all 20 tasks."""
        points = sweep_memory_budget([4.0, 16.0])
        assert points[0].admitted_tasks == points[1].admitted_tasks

    def test_tiny_memory_forces_cheaper_paths_or_rejection(self):
        points = sweep_memory_budget([0.5, 16.0])
        assert points[0].memory_gb <= 0.5 + 1e-9
        # admission can only improve with more memory
        assert points[0].weighted_admission <= points[1].weighted_admission + 1e-9


class TestRateSweep:
    def test_admission_degrades_with_load(self):
        points = sweep_request_rate([2.0, 5.0, 8.0, 12.0])
        admissions = [p.weighted_admission for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(admissions, admissions[1:]))
        assert admissions[0] > admissions[-1]

    def test_radio_saturates_with_load(self):
        points = sweep_request_rate([2.0, 12.0])
        assert points[1].radio_blocks >= points[0].radio_blocks - 1e-9

"""Unit tests for the radio substrate: RB slicing."""

from __future__ import annotations

import pytest

from repro.radio.slicing import Slice, SliceManager


class TestSlicing:
    def test_slice_throughput(self):
        s = Slice(task_id=1, radio_blocks=5, bits_per_rb=350_000.0)
        assert s.throughput_bps == pytest.approx(1.75e6)
        assert s.transmission_time(350_000.0) == pytest.approx(0.2)

    def test_zero_rb_slice_starves(self):
        s = Slice(task_id=1, radio_blocks=0, bits_per_rb=350_000.0)
        assert s.transmission_time(100.0) == float("inf")

    def test_manager_capacity_enforced(self):
        mgr = SliceManager(capacity_rbs=10)
        mgr.allocate(1, 6, 350_000.0)
        with pytest.raises(ValueError, match="cannot allocate"):
            mgr.allocate(2, 5, 350_000.0)
        assert mgr.free_rbs == 4

    def test_reallocation_replaces(self):
        mgr = SliceManager(capacity_rbs=10)
        mgr.allocate(1, 6, 350_000.0)
        mgr.allocate(1, 8, 350_000.0)  # resize within freed capacity
        assert mgr.allocated_rbs == 8

    def test_release(self):
        mgr = SliceManager(capacity_rbs=10)
        mgr.allocate(1, 6, 350_000.0)
        mgr.release(1)
        assert mgr.free_rbs == 10
        with pytest.raises(KeyError):
            mgr.slice_for(1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SliceManager(capacity_rbs=0)

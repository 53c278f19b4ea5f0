"""Unit tests for the radio substrate: RB slicing."""

from __future__ import annotations

import pytest

from repro.radio.slicing import SliceManager


class TestSlicing:
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

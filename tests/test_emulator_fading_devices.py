"""Tests for channel fading: the process, the faded cell, a faded serving run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.emulator.lte import BlockFading, LteCell
from repro.radio.slicing import SliceManager
from repro.serving import DropReason
from repro.workloads.smallscale import small_scale_problem
from tests.conftest import serve_frame_per_job


class TestBlockFading:
    def test_factor_in_unit_interval(self):
        fading = BlockFading(sigma_db=3.0, seed=0)
        for t in np.linspace(0, 10, 37):
            factor = fading.factor(task_id=1, now=float(t))
            assert 0.0 < factor <= 1.0

    def test_constant_within_coherence_block(self):
        fading = BlockFading(coherence_time_s=1.0, sigma_db=3.0, seed=0)
        assert fading.factor(1, 0.1) == fading.factor(1, 0.9)

    def test_changes_across_blocks(self):
        fading = BlockFading(coherence_time_s=0.5, sigma_db=3.0, seed=0)
        factors = {fading.factor(1, 0.5 * b + 0.1) for b in range(20)}
        assert len(factors) > 5

    def test_independent_across_tasks(self):
        fading = BlockFading(coherence_time_s=0.5, sigma_db=3.0, seed=0)
        a = [fading.factor(1, t) for t in np.arange(0, 5, 0.5)]
        b = [fading.factor(2, t) for t in np.arange(0, 5, 0.5)]
        assert a != b

    def test_deterministic_given_seed(self):
        a = BlockFading(sigma_db=2.0, seed=7)
        b = BlockFading(sigma_db=2.0, seed=7)
        assert a.factor(3, 1.23) == b.factor(3, 1.23)

    def test_zero_sigma_is_unity(self):
        fading = BlockFading(sigma_db=0.0)
        assert fading.factor(1, 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockFading(coherence_time_s=0.0)
        with pytest.raises(ValueError):
            BlockFading(sigma_db=-1.0)


class TestFadedCell:
    def test_fading_extends_transmissions(self):
        mgr = SliceManager(capacity_rbs=100)
        mgr.allocate(1, 5, 350_000.0)
        clean = LteCell(slice_manager=mgr)
        faded = LteCell(slice_manager=mgr, fading=BlockFading(sigma_db=3.0, seed=1))
        base = clean.transmission_duration(1, 350_000.0)
        worst = max(
            faded.transmission_duration(1, 350_000.0, now=t)
            for t in np.arange(0, 10, 0.5)
        )
        assert worst > base


def _faded_run(slice_margin_rbs: int):
    """Three tasks, 10 s, one frame per job, mild fading on the uplink."""
    fading = BlockFading(sigma_db=0.4, seed=2)
    problem = small_scale_problem(3, seed=0)
    return serve_frame_per_job(problem, 10.0, slice_margin_rbs, fading)[1]


class TestMultiDeviceScenario:
    def test_fading_tolerated_with_slice_margin(self):
        """The solver's ``slice_margin_rbs`` option over-provisions each
        slice; with that headroom, mild fading adds jitter but every
        request of every task is served on time."""
        metrics = _faded_run(slice_margin_rbs=2)
        for task_id, task in metrics.tasks.items():
            assert task.completed == task.offered == 51, task_id
            assert task.deadline_misses == 0, task_id

    def test_rate_matched_slices_unstable_under_fading(self):
        """The instructive failure mode: OffloaDNN sizes slices to the
        *nominal* per-RB rate, so a slice running at 100% utilization
        (r = ceil(λβ/B)) becomes an unstable queue under any sustained
        throughput loss.  The runtime names the outcome: frames that
        leave the uplink past their deadline are ``deadline`` drops,
        never unreported late completions.  (The paper's Colosseum setup
        used a static 0 dB path loss, i.e. no fading, which is why
        Fig. 11 stays flat.)"""
        metrics = _faded_run(slice_margin_rbs=0)
        # task 2's slice is rate matched (5 RBs for 5 req/s x 350 kb)
        task = metrics.tasks[2]
        assert task.drops[DropReason.DEADLINE] >= task.offered / 2
        for task in metrics.tasks.values():
            assert task.deadline_misses == 0
            assert task.completed + task.drops[DropReason.DEADLINE] == task.offered

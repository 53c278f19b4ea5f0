"""LTE cell model for the emulator.

The Colosseum configuration of Sec. V-B: 20 MHz FDD (100 RBs) fully
dedicated to the cell, static 0 dB path loss.  Uplink transmissions are
TTI-granular (1 ms subframes): a frame of ``β`` bits over a slice of
``r`` RBs occupies ``ceil(β / (B·r·TTI)) `` subframes.  Each slice is a
dedicated RB set (SCOPE-style slicing), so transmissions of different
tasks do not contend; frames of the *same* task queue FIFO on their
slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.radio.slicing import Slice, SliceManager

__all__ = ["TTI_S", "BlockFading", "LteCell"]

#: LTE subframe (transmission time interval) in seconds.
TTI_S = 0.001


@dataclass
class BlockFading:
    """Slow block fading: a piecewise-constant per-task throughput factor.

    Every ``coherence_time_s`` the link draws a new log-normal shadowing
    realization (``sigma_db`` standard deviation, capped at the nominal
    rate), modelling the slow channel variations visible in the Fig. 11
    traces.  Deterministic given the seed.
    """

    coherence_time_s: float = 0.5
    sigma_db: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.coherence_time_s <= 0:
            raise ValueError("coherence_time_s must be positive")
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be >= 0")

    def factor(self, task_id: int, now: float) -> float:
        """Throughput multiplier in (0, 1] for the task's link at ``now``."""
        block = int(now / self.coherence_time_s)
        rng = np.random.default_rng((self.seed * 1_000_003 + task_id) * 65_537 + block)
        attenuation_db = abs(float(rng.normal(0.0, self.sigma_db)))
        return float(10.0 ** (-attenuation_db / 10.0))


@dataclass
class LteCell:
    """Uplink of an LTE cell with per-task dedicated slices."""

    slice_manager: SliceManager
    #: optional slow-fading process modulating per-slice throughput
    fading: BlockFading | None = None
    #: virtual time at which each slice is next free (FIFO per slice)
    _slice_busy_until: dict[int, float] = field(default_factory=dict)

    def transmission_duration(self, task_id: int, bits: float, now: float = 0.0) -> float:
        """Airtime of one frame on the task's slice, TTI-granular."""
        slc: Slice = self.slice_manager.slice_for(task_id)
        throughput = slc.throughput_bps
        if self.fading is not None:
            throughput *= self.fading.factor(task_id, now)
        if throughput <= 0:
            return float("inf")
        subframes = max(1, math.ceil(bits / (throughput * TTI_S) - 1e-12))
        return subframes * TTI_S

    def enqueue_frame(self, task_id: int, bits: float, now: float) -> float:
        """Admit a frame into the slice queue; returns its delivery time.

        Models FIFO queueing on the slice: a frame starts after the
        previous frame of the same task finishes (frames from multiple
        devices of the same task share the slice).
        """
        start = max(now, self._slice_busy_until.get(task_id, 0.0))
        duration = self.transmission_duration(task_id, bits, now=start)
        finish = start + duration
        self._slice_busy_until[task_id] = finish
        return finish

    def reset(self) -> None:
        self._slice_busy_until.clear()

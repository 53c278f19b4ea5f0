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

from repro.radio.slicing import Slice, SliceManager

__all__ = ["TTI_S", "LteCell"]

#: LTE subframe (transmission time interval) in seconds.
TTI_S = 0.001


@dataclass
class LteCell:
    """Uplink of an LTE cell with per-task dedicated slices."""

    slice_manager: SliceManager
    #: virtual time at which each slice is next free (FIFO per slice)
    _slice_busy_until: dict[int, float] = field(default_factory=dict)

    def transmission_duration(self, task_id: int, bits: float) -> float:
        """Airtime of one frame on the task's slice, TTI-granular."""
        slc: Slice = self.slice_manager.slice_for(task_id)
        throughput = slc.throughput_bps
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
        duration = self.transmission_duration(task_id, bits)
        finish = start + duration
        self._slice_busy_until[task_id] = finish
        return finish

    def reset(self) -> None:
        self._slice_busy_until.clear()

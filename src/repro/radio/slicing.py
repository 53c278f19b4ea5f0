"""Radio network slices — one per admitted task (Sec. III-A).

The OffloaDNN controller allocates ``r_τ`` RBs to the slice serving
task ``τ`` (step 4 of the Fig. 4 workflow, realized by SCOPE in the
Colosseum validation).  The slice manager enforces the pool capacity
``Σ r_τ ≤ R``; a frame's airtime on a slice is
:func:`repro.core.latency.uplink_tti_s`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Slice", "SliceManager"]


@dataclass
class Slice:
    """A radio slice serving one task."""

    task_id: int
    radio_blocks: int
    bits_per_rb: float

    def __post_init__(self) -> None:
        if self.radio_blocks < 0:
            raise ValueError("radio_blocks must be >= 0")
        if self.bits_per_rb <= 0:
            raise ValueError("bits_per_rb must be positive")


@dataclass
class SliceManager:
    """Tracks slice allocations against the RB pool ``R``."""

    capacity_rbs: int
    slices: dict[int, Slice] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity_rbs <= 0:
            raise ValueError("capacity must be positive")

    @property
    def allocated_rbs(self) -> int:
        return sum(s.radio_blocks for s in self.slices.values())

    @property
    def free_rbs(self) -> int:
        return self.capacity_rbs - self.allocated_rbs

    def allocate(self, task_id: int, radio_blocks: int, bits_per_rb: float) -> Slice:
        """Create (or resize) the slice for ``task_id``."""
        current = self.slices.get(task_id)
        freed = current.radio_blocks if current else 0
        if radio_blocks > self.free_rbs + freed:
            raise ValueError(
                f"cannot allocate {radio_blocks} RBs to task {task_id}: "
                f"only {self.free_rbs + freed} free of {self.capacity_rbs}"
            )
        new_slice = Slice(
            task_id=task_id, radio_blocks=radio_blocks, bits_per_rb=bits_per_rb
        )
        self.slices[task_id] = new_slice
        return new_slice

    def release(self, task_id: int) -> None:
        self.slices.pop(task_id, None)

    def slice_for(self, task_id: int) -> Slice:
        try:
            return self.slices[task_id]
        except KeyError:
            raise KeyError(f"no slice allocated for task {task_id}") from None

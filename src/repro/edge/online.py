"""Online operation: tasks arriving and departing over time.

The paper's formulation covers a one-shot admission decision and notes
the dynamic extension (Sec. III-B); the controller already supports it
(remaining-capacity solves, reference-counted deployments).  This
module adds the *driver*: a seeded arrival/departure process and a
study loop that feeds it through the controller, recording the
time series an operator would watch — active tasks, admission rate,
deployed memory, slice usage.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.heuristic import OffloaDNNSolver
from repro.core.problem import RadioModel
from repro.core.task import QualityLevel, Task
from repro.edge.controller import OffloaDNNController
from repro.edge.resources import Gpu
from repro.edge.vim import VirtualInfrastructureManager
from repro.radio.slicing import SliceManager
from repro.workloads.generator import ScenarioCatalogBuilder

__all__ = ["OnlineSnapshot", "OnlineTrace", "OnlineStudy"]


@dataclass(frozen=True)
class OnlineSnapshot:
    """System state right after one arrival or departure event."""

    time_s: float
    event: str  # "arrival" or "departure"
    task_id: int
    admitted: bool | None  # None for departures
    active_tasks: int
    deployed_memory_gb: float
    active_blocks: int
    allocated_rbs: int


@dataclass
class OnlineTrace:
    """The recorded time series of an online run."""

    snapshots: list[OnlineSnapshot] = field(default_factory=list)
    arrivals: int = 0
    admissions: int = 0
    rejections: int = 0
    departures: int = 0

    @property
    def admission_fraction(self) -> float:
        if self.arrivals == 0:
            return float("nan")
        return self.admissions / self.arrivals

    def series(self, attribute: str) -> tuple[list[float], list[float]]:
        """(times, values) of one snapshot attribute."""
        times = [s.time_s for s in self.snapshots]
        values = [float(getattr(s, attribute)) for s in self.snapshots]
        return times, values


@dataclass
class OnlineStudy:
    """Drive the controller with a Poisson arrival / exponential
    lifetime task process."""

    arrival_rate_per_s: float = 0.5
    mean_lifetime_s: float = 30.0
    horizon_s: float = 120.0
    memory_gb: float = 8.0
    compute_s: float = 2.5
    radio_blocks: int = 50
    bits_per_rb: float = 350_000.0
    request_rate: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_rate_per_s <= 0 or self.mean_lifetime_s <= 0:
            raise ValueError("rates and lifetimes must be positive")
        if self.horizon_s <= 0:
            raise ValueError("horizon must be positive")

    def _make_task(self, task_id: int, rng: np.random.Generator) -> Task:
        quality = QualityLevel("full", 350_000.0)
        return Task(
            task_id=task_id,
            name=f"online-task-{task_id}",
            method="classification",
            priority=float(rng.uniform(0.2, 1.0)),
            request_rate=self.request_rate,
            min_accuracy=float(rng.uniform(0.5, 0.85)),
            max_latency_s=float(rng.uniform(0.25, 0.6)),
            qualities=(quality,),
        )

    def run(self, solver=None) -> OnlineTrace:
        """Run the arrival/departure process through the controller."""
        rng = np.random.default_rng(self.seed)
        vim = VirtualInfrastructureManager(
            gpus=(Gpu(0, vram_gb=self.memory_gb, compute_share=self.compute_s),)
        )
        controller = OffloaDNNController(
            vim=vim,
            slice_manager=SliceManager(capacity_rbs=self.radio_blocks),
            radio=RadioModel(default_bits_per_rb=self.bits_per_rb),
            solver=solver or OffloaDNNSolver(),
        )
        trace = OnlineTrace()
        # event queue: (time, sequence, kind, task_id)
        events: list[tuple[float, int, str, int]] = []
        sequence = 0
        now = float(rng.exponential(1.0 / self.arrival_rate_per_s))
        next_task_id = 1
        while now < self.horizon_s:
            heapq.heappush(events, (now, sequence, "arrival", next_task_id))
            sequence += 1
            next_task_id += 1
            now += float(rng.exponential(1.0 / self.arrival_rate_per_s))

        active: set[int] = set()
        while events:
            time_s, _, kind, task_id = heapq.heappop(events)
            if kind == "arrival":
                trace.arrivals += 1
                task = self._make_task(task_id, rng)
                # per-task seeded builder keeps catalogs reproducible and
                # shared trunk blocks identical across arrivals
                builder = ScenarioCatalogBuilder(seed=0)
                catalog = builder.build((task,), task.qualities[0])
                tickets = controller.handle_admission_requests((task,), catalog)
                ticket = tickets[task.task_id]
                if ticket.admitted:
                    trace.admissions += 1
                    active.add(task_id)
                    lifetime = float(rng.exponential(self.mean_lifetime_s))
                    heapq.heappush(
                        events, (time_s + lifetime, sequence, "departure", task_id)
                    )
                    sequence += 1
                else:
                    trace.rejections += 1
                admitted: bool | None = ticket.admitted
            else:
                trace.departures += 1
                controller.evict_task(task_id)
                active.discard(task_id)
                admitted = None
            trace.snapshots.append(
                OnlineSnapshot(
                    time_s=time_s,
                    event=kind,
                    task_id=task_id,
                    admitted=admitted,
                    active_tasks=len(active),
                    deployed_memory_gb=vim.deployed_memory_gb(),
                    active_blocks=len(vim.deployments),
                    allocated_rbs=controller.slice_manager.allocated_rbs,
                )
            )
        return trace

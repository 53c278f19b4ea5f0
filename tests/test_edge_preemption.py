"""Tests for evicting admitted tasks at the controller."""

from __future__ import annotations

from repro.core.problem import Budgets, RadioModel
from repro.core.task import QualityLevel, Task
from repro.edge.controller import OffloaDNNController, ResourceLedger
from repro.workloads.generator import ScenarioCatalogBuilder


def _task(task_id: int, priority: float) -> Task:
    return Task(
        task_id=task_id,
        name=f"t{task_id}",
        method="classification",
        priority=priority,
        request_rate=5.0,
        min_accuracy=0.7,
        max_latency_s=0.4,
        qualities=(QualityLevel("full", 350_000.0),),
    )


def _controller(radio_blocks: int = 12) -> OffloaDNNController:
    # a 12-RB pool fits two 5-RB tasks but not three
    capacity = Budgets(
        compute_time_s=2.5, training_budget_s=1000.0, memory_gb=8.0,
        radio_blocks=radio_blocks,
    )
    return OffloaDNNController(
        ledger=ResourceLedger(capacity),
        radio=RadioModel(default_bits_per_rb=350_000.0),
    )


def _admit(controller: OffloaDNNController, task: Task):
    catalog = ScenarioCatalogBuilder(seed=0).build((task,), task.qualities[0])
    return controller.handle_admission_requests((task,), catalog)[task.task_id]


class TestPreemption:
    def test_eviction_frees_blocks_and_slices(self):
        controller = _controller()
        _admit(controller, _task(1, 0.3))
        _admit(controller, _task(2, 0.5))
        ledger = controller.ledger
        full = ledger.remaining()
        # a third 5-RB slice does not fit the 2 RBs the grid has left
        assert full.radio_blocks == 2
        assert not _admit(controller, _task(4, 0.9)).admitted
        unloaded = controller.evict_task(1)
        assert 1 not in ledger.radio_blocks and 1 not in ledger.compute_s
        assert ledger.remaining().radio_blocks == 7
        # task-1-only blocks unloaded; blocks task 2 still uses stay
        assert unloaded and all(block_id not in ledger.blocks for block_id in unloaded)
        assert full.memory_gb < ledger.remaining().memory_gb < 8.0
        assert _admit(controller, _task(3, 0.9)).admitted

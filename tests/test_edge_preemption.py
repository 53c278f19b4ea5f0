"""Tests for evicting admitted tasks at the controller."""

from __future__ import annotations

from repro.core.problem import RadioModel
from repro.core.task import QualityLevel, Task
from repro.edge.controller import OffloaDNNController
from repro.edge.resources import Gpu
from repro.edge.vim import VirtualInfrastructureManager
from repro.radio.slicing import SliceManager
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
    return OffloaDNNController(
        vim=VirtualInfrastructureManager(gpus=(Gpu(0, vram_gb=8.0, compute_share=2.5),)),
        slice_manager=SliceManager(capacity_rbs=radio_blocks),
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
        memory_full = controller.vim.deployed_memory_gb()
        free_rbs = controller.slice_manager.free_rbs
        controller.evict_task(1)
        assert 1 not in controller.slice_manager.slices
        assert controller.slice_manager.free_rbs > free_rbs
        # task-1-only blocks unloaded; blocks task 2 still uses stay
        assert 0.0 < controller.vim.deployed_memory_gb() < memory_full
        assert _admit(controller, _task(3, 0.9)).admitted

"""Shared fixtures for the test suite.

Keeps expensive artifacts (profiled configs, scenario problems) cached
at session scope so the suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.catalog import Block, Catalog, Path
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.task import QualityLevel, Task


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="also run tests marked slow (bigger instances of tier-1 gates)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow: run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def quality() -> QualityLevel:
    return QualityLevel(name="full", bits_per_image=350_000.0)


def make_task(
    task_id: int,
    priority: float = 0.8,
    request_rate: float = 5.0,
    min_accuracy: float = 0.7,
    max_latency_s: float = 0.3,
    quality: QualityLevel | None = None,
) -> Task:
    return Task(
        task_id=task_id,
        name=f"task{task_id}",
        method="classification",
        priority=priority,
        request_rate=request_rate,
        min_accuracy=min_accuracy,
        max_latency_s=max_latency_s,
        qualities=(quality or QualityLevel(name="full", bits_per_image=350_000.0),),
    )


def make_block(
    block_id: str,
    dnn_id: str = "dnn0",
    compute_time_s: float = 0.005,
    memory_gb: float = 0.2,
    training_cost_s: float = 0.0,
) -> Block:
    return Block(
        block_id=block_id,
        dnn_id=dnn_id,
        compute_time_s=compute_time_s,
        memory_gb=memory_gb,
        training_cost_s=training_cost_s,
    )


def make_path(
    task: Task,
    path_id: str,
    blocks: tuple[Block, ...],
    accuracy: float = 0.9,
) -> Path:
    return Path(
        path_id=path_id,
        dnn_id=blocks[0].dnn_id,
        task_id=task.task_id,
        blocks=blocks,
        accuracy=accuracy,
        quality=task.qualities[0],
    )


def make_request(
    task_id: int, request_id: int, created_at: float, completed_at: float,
    deadline_s: float = 1.0,
):
    """A finished (or, with a NaN completion, unfinished) serving record."""
    from repro.serving import ServingRequest

    return ServingRequest(
        task_id=task_id, request_id=request_id, path=None, created_at=created_at,
        deadline_at=created_at + deadline_s, bits=0.0, completed_at=completed_at,
    )


def serve_frame_per_job(problem, duration_s, slice_margin_rbs=0, fading=None, **config):
    """``problem`` admitted and served in the Fig. 11 regime: one frame per
    job, a dispatcher tick per TTI.  Returns ``(runtime, its metrics)``."""
    from repro.core.heuristic import OffloaDNNSolver
    from repro.emulator.lte import TTI_S
    from repro.serving import ServingConfig, ServingRuntime

    config = ServingConfig(duration_s=duration_s, batch_window_s=TTI_S, max_batch=1, **config)
    solver = OffloaDNNSolver(slice_margin_rbs=slice_margin_rbs)
    runtime = ServingRuntime.from_problem(problem, config, solver=solver)
    runtime.fading = fading
    return runtime, runtime.run()


@pytest.fixture()
def tiny_problem(quality: QualityLevel) -> DOTProblem:
    """Three tasks, two candidate paths each, one shared block."""
    shared = make_block("shared", compute_time_s=0.004, memory_gb=0.5)
    tasks = []
    catalog = Catalog()
    for i in range(3):
        task = make_task(i, priority=0.9 - 0.1 * i, min_accuracy=0.8, quality=quality)
        tasks.append(task)
        cheap = make_block(f"head{i}-cheap", compute_time_s=0.002, memory_gb=0.1,
                           training_cost_s=50.0)
        rich = make_block(f"head{i}-rich", compute_time_s=0.010, memory_gb=0.8,
                          training_cost_s=200.0)
        catalog.add_path(make_path(task, f"t{i}-cheap", (shared, cheap), accuracy=0.85))
        catalog.add_path(make_path(task, f"t{i}-rich", (shared, rich), accuracy=0.95))
    return DOTProblem(
        tasks=tuple(tasks),
        catalog=catalog,
        budgets=Budgets(
            compute_time_s=2.5, training_budget_s=1000.0, memory_gb=8.0, radio_blocks=50
        ),
        radio=RadioModel(default_bits_per_rb=350_000.0),
        alpha=0.5,
    )


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(42)

#!/usr/bin/env python3
"""Dynamic admission: tasks arriving incrementally at the edge.

The paper notes the DOT formulation "can be trivially extended to deal
with a dynamic scenario": treat already-deployed blocks as free, and
discount the radio/compute/memory capacities.  The OffloaDNN controller
realizes exactly this with one resource ledger: every solve runs
against the ledger's *remaining* capacities (compute, memory, slice
RBs), and the ledger's reference-counted deployed blocks make
previously loaded shared blocks free for newcomers.

This example admits two waves of tasks and then evicts one, showing the
capacity bookkeeping across the lifecycle.

Run:  python examples/dynamic_admission.py
"""

from repro.core.heuristic import OffloaDNNSolver
from repro.core.problem import Budgets, RadioModel
from repro.core.task import QualityLevel, Task
from repro.edge.controller import OffloaDNNController, ResourceLedger
from repro.workloads.generator import ScenarioCatalogBuilder


def make_tasks(ids, priorities):
    quality = QualityLevel("full", 350_000.0)
    return tuple(
        Task(
            task_id=i,
            name=f"task-{i}",
            method="classification",
            priority=p,
            request_rate=5.0,
            min_accuracy=0.75,
            max_latency_s=0.4,
            qualities=(quality,),
        )
        for i, p in zip(ids, priorities)
    )


def show(controller, label):
    free = controller.ledger.remaining()
    print(
        f"  [{label}] memory free {free.memory_gb:.2f} GB, "
        f"compute free {free.compute_time_s:.2f} s, "
        f"RBs free {free.radio_blocks}, "
        f"active blocks {len(controller.ledger.blocks)}"
    )


def main() -> None:
    capacity = Budgets(
        compute_time_s=2.5, training_budget_s=1000.0, memory_gb=8.0, radio_blocks=50
    )
    controller = OffloaDNNController(
        ledger=ResourceLedger(capacity),
        radio=RadioModel(default_bits_per_rb=350_000.0),
        solver=OffloaDNNSolver(),
    )
    builder = ScenarioCatalogBuilder(seed=0)

    print("wave 1: tasks 1-3 arrive")
    wave1 = make_tasks([1, 2, 3], [0.9, 0.8, 0.7])
    catalog1 = builder.build(wave1, wave1[0].qualities[0])
    tickets = controller.handle_admission_requests(wave1, catalog1)
    for t in wave1:
        tk = tickets[t.task_id]
        print(f"  task {t.task_id}: admitted={tk.admitted} z={tk.admission_ratio:.2f} "
              f"r={tk.radio_blocks} path={tk.path_id}")
    show(controller, "after wave 1")

    print("wave 2: tasks 4-5 arrive (capacities already discounted)")
    wave2 = make_tasks([4, 5], [0.6, 0.5])
    catalog2 = builder.build(wave2, wave2[0].qualities[0])
    tickets = controller.handle_admission_requests(wave2, catalog2)
    for t in wave2:
        tk = tickets[t.task_id]
        print(f"  task {t.task_id}: admitted={tk.admitted} z={tk.admission_ratio:.2f} "
              f"r={tk.radio_blocks} path={tk.path_id}")
    show(controller, "after wave 2")

    print("task 2 leaves: its slice is released and orphaned blocks unload")
    controller.evict_task(2)
    show(controller, "after eviction")


if __name__ == "__main__":
    main()

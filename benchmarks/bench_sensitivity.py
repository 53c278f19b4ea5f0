"""Sensitivity sweeps — beyond the paper's fixed Table IV budgets.

Quantifies where each edge resource starts to bind on the large-scale
scenario, and how admission degrades with finer-grained load than the
paper's three levels.
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_sensitivity_sweeps(benchmark):
    artifact = benchmark.pedantic(artifacts.sensitivity, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data
    radio = data["radio"]
    assert radio[0].weighted_admission < radio[-1].weighted_admission
    memory = data["memory"]
    # sharing makes memory non-binding long before the Table IV budget
    assert memory[3].admitted_tasks == memory[-1].admitted_tasks
    rate = data["rate"]
    assert rate[0].weighted_admission > rate[-1].weighted_admission

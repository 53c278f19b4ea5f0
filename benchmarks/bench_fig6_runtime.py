"""Fig. 6 — solver runtime: OffloaDNN vs the optimum, T = 1..5.

The paper reports the optimum over an order of magnitude slower already
at T > 1, growing exponentially, while OffloaDNN stays flat.
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_fig6_runtime_comparison(benchmark):
    artifact = benchmark.pedantic(artifacts.fig6, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data
    # the published relationship: >= 10x gap for every T >= 2
    for t, h, o in zip(data["num_tasks"], data["offloadnn_s"], data["optimum_s"]):
        if t >= 2:
            assert o > 10 * h

"""Fig. 9 — large scale: per-task admission ratio vs SEM-O-RAN.

The paper: at low rate OffloaDNN admits all 20 tasks (SEM-O-RAN 16); at
medium ~all (SEM-O-RAN 16); at high the top-priority tasks keep ratio
1, the next ones degrade gracefully, the last are rejected, while
SEM-O-RAN admits only 13 all-or-nothing.
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_fig9_admission_ratios(benchmark):
    artifact = benchmark.pedantic(artifacts.fig9, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data
    assert all(z == 1.0 for z in data["low"]["offloadnn"])
    assert sum(data["low"]["semoran"]) == 16
    assert sum(1 for z in data["medium"]["offloadnn"] if z >= 0.99) >= 19
    high = data["high"]["offloadnn"]
    assert all(z == 1.0 for z in high[:10])
    assert high[-1] == 0.0
    assert sum(data["high"]["semoran"]) <= 13

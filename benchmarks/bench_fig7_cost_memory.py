"""Fig. 7 — small scale: normalized DOT cost and memory vs the optimum.

The paper: OffloaDNN's cost is indistinguishable from the optimum;
memory is only slightly higher and never above 64% of the 8 GB budget.
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_fig7_cost_and_memory(benchmark):
    artifact = benchmark.pedantic(artifacts.fig7, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data
    for hc, oc in zip(data["offloadnn_cost"], data["optimum_cost"]):
        assert hc <= oc * 1.15 + 1e-9  # heuristic matches the optimum closely
    assert max(data["offloadnn_memory"]) <= 0.64  # paper: at most 64% of M

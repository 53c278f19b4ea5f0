"""Fig. 8 — small scale: the four cost-breakdown panels vs the optimum.

Panels: priority-weighted admission ratio (identical to the optimum),
normalized RBs (identical), training compute (OffloaDNN slightly
higher — the price of first-branch selection), inference compute
(OffloaDNN not above the optimum, thanks to compute-time ordering).
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_fig8_cost_breakdown(benchmark):
    artifact = benchmark.pedantic(artifacts.fig8, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data

    def panel(name):
        return zip(data[f"offloadnn_{name}"], data[f"optimum_{name}"])

    assert all(abs(off - opt) < 1e-6 for off, opt in panel("weighted_admission"))
    assert all(off <= opt + 1e-9 for off, opt in panel("inference"))
    assert all(off >= opt - 1e-9 for off, opt in panel("training"))

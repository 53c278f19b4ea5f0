"""Fig. 11 — emulated small-scale run: end-to-end latency vs time.

The Colosseum-substitute experiment: the controller admits the 5
small-scale tasks on a 100-RB cell, devices offload frames for 20 s
through the serving runtime (``repro.serving.fig11_runtime``: one frame
per job, one dispatcher tick per TTI), and every task's (moving-average)
end-to-end latency must stay within its target — the paper's
operational validation.
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_fig11_emulation_latency(benchmark):
    artifact = benchmark.pedantic(artifacts.fig11, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data
    assert data["within_limits"]
    assert len(data["series"]) == 5

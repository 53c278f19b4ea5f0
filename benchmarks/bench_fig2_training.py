"""Fig. 2 — training configurations: accuracy progression and memory.

Left panel: testing accuracy after each epoch for CONFIG A..E (the
paper's orderings: B/C fast but overfitting, D/E slower than C, A
slowest but eventually best).  Right panel: peak GPU memory occupancy
during training (A highest; B ~1.8x lower).
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_fig2_training_configurations(benchmark):
    artifact = benchmark.pedantic(artifacts.fig2, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data
    assert data["CONFIG A"]["epochs_to_80pct"] > 200
    ratio = data["CONFIG A"]["peak_memory_mib"] / data["CONFIG B"]["peak_memory_mib"]
    assert ratio > 1.3

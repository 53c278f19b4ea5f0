"""Fig. 3 — pruning effects on inference time and class accuracy.

Left panel: dummy-tensor inference compute time per configuration with
and without 80% pruning (A-pruned fastest, B-pruned slowest of the
pruned set).  Right panel: average class accuracy (every pruned variant
a bit worse; B-pruned best because it inherits the most base blocks).
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_fig3_pruning_effects(benchmark):
    artifact = benchmark.pedantic(artifacts.fig3, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data
    pruned_times = {
        name: d["inference_time_ms"] for name, d in data.items() if name.endswith("-pruned")
    }
    assert min(pruned_times, key=pruned_times.get) == "CONFIG A-pruned"
    pruned_acc = {
        name: d["class_accuracy"] for name, d in data.items() if name.endswith("-pruned")
    }
    assert max(pruned_acc, key=pruned_acc.get) == "CONFIG B-pruned"

"""Headline comparison — the paper's abstract-level numbers.

Paper: vs SEM-O-RAN, OffloaDNN admits 26.9% more offloaded tasks while
saving 82.5% memory, 77.4% per-inference compute time and 4.4% radio
resources (averaged over the three request rates).
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_headline_comparison(benchmark):
    artifact = benchmark.pedantic(artifacts.headline, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data
    assert 15.0 < data["admitted_tasks_gain_pct"] < 40.0
    assert 70.0 < data["memory_saving_pct"] < 95.0
    assert 65.0 < data["inference_compute_saving_pct"] < 90.0
    assert data["radio_saving_pct"] > 0.0

"""Fig. 10 — large scale: the four resource panels vs SEM-O-RAN.

Panels per request rate (low/medium/high): priority-weighted admission,
normalized allocated RBs, normalized total memory, normalized inference
compute.  Also reproduces the in-text DOT cost and training-compute
series for OffloaDNN.
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_fig10_largescale_comparison(benchmark):
    artifact = benchmark.pedantic(artifacts.fig10, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data
    for rate in ("low", "medium", "high"):
        d = data[rate]
        assert d["offloadnn_weighted_admission"] >= d["semoran_weighted_admission"] - 1e-9
        assert d["offloadnn_memory_fraction"] < 0.3 * d["semoran_memory_fraction"]
        assert d["offloadnn_inference_fraction"] < 0.35 * d["semoran_inference_fraction"]
    # memory: equal at low/medium, lower at high (rejections free blocks)
    assert data["low"]["offloadnn_memory_fraction"] == data["medium"]["offloadnn_memory_fraction"]
    assert data["high"]["offloadnn_memory_fraction"] < data["low"]["offloadnn_memory_fraction"]
    # training compute mirrors memory: constant, then lower at high rate
    assert (
        data["high"]["offloadnn_training_fraction"]
        < data["low"]["offloadnn_training_fraction"]
    )
    # DOT cost rises with the request rate
    costs = [data[r]["offloadnn_dot_cost"] for r in ("low", "medium", "high")]
    assert costs[0] < costs[1] < costs[2]

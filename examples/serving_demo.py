"""Serving runtime demo: from DOT solution to served request streams.

Runs the serving scenario (shared-trunk catalog on a 100-RB cell) at
nominal and doubled offered load, prints per-task latency percentiles,
deadline misses and drop reasons, and shows the shared-block prefix
cache cutting simulated GPU time.  Ends with the tensor-level
counterpart: a :class:`~repro.serving.executor.BlockwiseRunner`
executing two real numpy paths that share a frozen trunk, computing
the trunk activations once.

Run with:  PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.core.catalog import Block, Path
from repro.core.heuristic import OffloaDNNSolver
from repro.core.task import QualityLevel
from repro.dnn.graph import NamedModule
from repro.dnn.layers import Linear, ReLU
from repro.serving import BlockwiseRunner, ServingRuntime
from repro.workloads.smallscale import serving_small_scale_problem


def main() -> None:
    problem = serving_small_scale_problem(5)
    runtime = ServingRuntime.from_problem(
        problem, solver=OffloaDNNSolver(slice_margin_rbs=2)
    )

    for load in (1.0, 2.0):
        metrics = runtime.with_config(
            duration_s=10.0, load_factor=load, seed=0
        ).run()
        print(f"\n=== offered load {load:g}x ===")
        print(format_table(list(metrics.SUMMARY_HEADER), metrics.summary_rows(), precision=1))
        print(
            f"throughput {metrics.throughput_rps:.1f} req/s, "
            f"miss rate {metrics.deadline_miss_rate:.3f}, "
            f"compute {metrics.total_compute_s:.3f} s "
            f"(cache saved {metrics.compute_saved_s:.3f} s in "
            f"{metrics.prefix_merges} merges)"
        )

    no_cache = runtime.with_config(
        duration_s=10.0, load_factor=2.0, seed=0, prefix_cache=False
    ).run()
    print(
        f"\nwithout the prefix cache the same run costs "
        f"{no_cache.total_compute_s:.3f} s of simulated GPU time"
    )

    # --- tensor-level: one input, two paths sharing a frozen trunk ----
    rng = np.random.default_rng(0)
    trunk = NamedModule(
        "trunk", Linear(8, 16, rng=np.random.default_rng(1)), ReLU()
    )
    head_a = NamedModule("head_a", Linear(16, 4, rng=np.random.default_rng(2)))
    head_b = NamedModule("head_b", Linear(16, 2, rng=np.random.default_rng(3)))
    blocks = {
        "trunk": Block("trunk", "demo", compute_time_s=0.01, memory_gb=0.1),
        "head_a": Block("head_a", "demo:a", compute_time_s=0.002, memory_gb=0.02),
        "head_b": Block("head_b", "demo:b", compute_time_s=0.002, memory_gb=0.02),
    }
    quality = QualityLevel(name="full", bits_per_image=350_000.0)
    path_a = Path("demo:a", "demo:a", 1, (blocks["trunk"], blocks["head_a"]), 0.9, quality)
    path_b = Path("demo:b", "demo:b", 2, (blocks["trunk"], blocks["head_b"]), 0.8, quality)
    runner = BlockwiseRunner(
        modules={"trunk": trunk, "head_a": head_a, "head_b": head_b},
        cacheable=frozenset({"trunk"}),
    )
    x = rng.normal(size=(1, 8))
    # the key is our word that both calls carry the same tensor; without
    # one (input_key=None, the default) a run touches no cache
    out_a = runner.run(path_a, x, input_key=42)
    out_b = runner.run(path_b, x, input_key=42)
    print(
        f"\nblockwise runner: outputs {out_a.shape} and {out_b.shape}, "
        f"trunk computed once ({runner.cache_hits} cache hit, "
        f"{runner.cache_misses} miss, {runner.cache_bytes} bytes resident)"
    )


if __name__ == "__main__":
    main()

"""Table I — characterization of the DNN block configurations.

Regenerates the Table I inventory with measured parameters, inference
time and converged accuracy per configuration, and benches the
profiling pipeline that produces the DOT inputs.
"""

from __future__ import annotations

from benchmarks._report import emit
from repro.analysis import artifacts


def bench_table1_configuration_profiling(benchmark):
    artifact = benchmark.pedantic(artifacts.table1, rounds=1, iterations=1)
    emit(artifact.name, artifact.text)
    data = artifact.data
    assert len(data) == 10

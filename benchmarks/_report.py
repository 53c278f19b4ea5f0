"""Shared reporting for the benchmark harness.

Every paper-figure bench regenerates one artifact (a table or figure)
and both prints the text of its generator in ``repro.analysis.artifacts``
and writes it under ``benchmarks/results/`` (:func:`emit`), so the
paper-vs-measured record in EXPERIMENTS.md can be refreshed from a
single run.  The ``bench_*`` performance benches print
their table and persist only a ``BENCH_*.json`` (:func:`write_json`).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: environment variables that control BLAS/OpenMP thread pools
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def emit(name: str, text: str) -> None:
    """Print a report and persist it to benchmarks/results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def _blas_info() -> dict:
    """Best-effort numpy BLAS backend description (API varies by version)."""
    import numpy as np

    try:  # numpy >= 1.26 ships threadpoolctl-style introspection
        info = np.show_config(mode="dicts")  # type: ignore[call-arg]
        blas = info.get("Build Dependencies", {}).get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:
        return {"name": None, "version": None}


def environment() -> dict:
    """Machine/runtime metadata stamped into every benchmark JSON.

    Perf numbers are meaningless without the machine: this records the
    CPU budget (count + affinity), the BLAS/OpenMP thread pinning in
    effect, and interpreter/numpy versions, so committed benchmark
    files are comparable across hosts and across PRs.
    """
    import numpy as np

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "blas": _blas_info(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def write_json(report: dict, path: pathlib.Path) -> None:
    """Write a benchmark report with environment metadata attached."""
    report = dict(report)
    report.setdefault("environment", environment())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {path}")


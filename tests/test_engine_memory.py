"""Memory budgets: what the ``execute_real`` deployment owns, and what
``import repro`` loads.

Five paths sharing ``stem..layer3`` of ResNet-18 w32, fp32 and int8
runners, batch sizes 1 / 8 / 32, sixteen inputs per size — the shape of
the served-work benchmark's ``execute_real`` workload — under
tracemalloc: bytes owned (weights, int8 plans and their float32 shadows,
the thread arena, prefix-cache entries, outputs), not RSS, so the
reading holds across Python builds and allocators.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np

from benchmarks.bench_engine import shared_trunk_runners
from repro.dnn.compile import _thread_arena

MB = 1 << 20


def test_execute_real_deployment_stays_inside_its_memory_budget():
    """Traced peak 285.8 MB (cache entries 41.0 MB, arena 25.9 MB).
    Before the arena packed buffers by lifetime it read 308.1 MB here
    (arena + pad pool 48.2 MB): every step output had a region of its
    own and every (dtype, shape, batch, padding) a pad of its own.
    Before the branch-point prefix cache it read 632.8 MB (352.0 MB and
    68.3 MB): it cached all four trunk blocks of every input although the
    paths only part after ``layer3`` — 64 entries were its last 16
    inputs, the batch-32 ones — and bound a whole-batch im2col scratch.
    The ceilings are +10 % over the packed arena's first measurement
    (25.9 MB, 287.5 MB)."""
    _thread_arena().release()  # whatever earlier tests bound is not this test's
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        runners, paths, shape = shared_trunk_runners(32, 32)
        for key, n in enumerate(n for n in (1, 8, 32) for _ in range(16)):
            x = rng.standard_normal((n, *shape), dtype=np.float32)
            for runner in runners.values():
                runner.run(paths[key % len(paths)], x, input_key=key)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cache = sum(runner.cache_bytes for runner in runners.values())
    arena = _thread_arena().nbytes
    _thread_arena().release()
    print(f"peak {peak / MB:.1f} MB, cache {cache / MB:.1f} MB, arena {arena / MB:.1f} MB")
    # one layer3 activation (128 x 8 x 8 floats a sample) per input and runner
    assert cache == 2 * 16 * (1 + 8 + 32) * 4 * 128 * 8 * 8
    assert arena <= 28 * MB
    assert peak <= 317 * MB


def test_import_loads_neither_networkx_nor_asyncio():
    """``import repro`` read 51.6 MB RSS with both, 31.0 MB without:
    networkx served one connected-components call in pruning, asyncio
    only a TCP transport that is no longer part of the package."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import repro; "
        "print(sorted(m for m in ('networkx', 'asyncio') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

"""Fig. 11 — emulated small-scale run: end-to-end latency vs time.

The Colosseum-substitute experiment: the controller admits the 5
small-scale tasks on a 100-RB cell, devices offload frames for 20 s
through the serving runtime (``repro.serving.fig11_runtime``: one frame
per job, one dispatcher tick per TTI), and every task's (moving-average)
end-to-end latency must stay within its target — the paper's
operational validation.
"""

from __future__ import annotations

import numpy as np

from benchmarks._report import emit
from repro.analysis.figures import fig11_emulation_latency
from repro.analysis.report import format_table


def bench_fig11_emulation_latency(benchmark):
    data = benchmark.pedantic(
        lambda: fig11_emulation_latency(num_tasks=5, duration_s=20.0),
        rounds=1,
        iterations=1,
    )
    rows = []
    for task_id, entry in sorted(data["series"].items()):
        latency = np.asarray(entry["latency_s"], dtype=float)
        rows.append(
            [
                task_id,
                1e3 * float(latency.mean()),
                1e3 * float(latency.max()),
                1e3 * entry["limit_s"],
                len(latency),
            ]
        )
    emit(
        "fig11_emulation",
        "Fig. 11: emulated end-to-end latency (moving average, window 3)\n"
        + format_table(
            ["task", "mean [ms]", "max [ms]", "limit [ms]", "samples"],
            rows,
            precision=1,
        )
        + f"\nall tasks within latency targets: {data['within_limits']}"
        + f"\nDES events processed: {data['events']}",
    )
    assert data["within_limits"]
    assert len(data["series"]) == 5

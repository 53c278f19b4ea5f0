#!/usr/bin/env python3
"""Emulator demo: the Fig. 11 Colosseum-substitute experiment.

The OffloaDNN controller admits the five small-scale tasks on a
100-RB LTE cell; devices then offload frames at the granted rates for 20
seconds through the serving runtime on the discrete-event simulator (one
frame per job, one dispatcher tick per TTI).  The output is each task's
end-to-end latency trace (3-sample moving average), which must stay
within its constraint — the paper's operational validation.

Run:  python examples/emulator_demo.py
"""

import numpy as np

from repro.serving import fig11_runtime, latency_series


def sparkline(values: np.ndarray, limit: float, width: int = 50) -> str:
    """Render a latency trace as a text sparkline scaled to the limit."""
    if len(values) == 0:
        return "(no samples)"
    idx = np.linspace(0, len(values) - 1, min(width, len(values))).astype(int)
    marks = "▁▂▃▄▅▆▇█"
    chars = []
    for v in values[idx]:
        level = min(1.0, v / limit)
        chars.append(marks[min(len(marks) - 1, int(level * len(marks)))])
    return "".join(chars)


def main() -> None:
    runtime = fig11_runtime(num_tasks=5, duration_s=20.0)
    runtime.run()
    print("Fig. 11 emulation: end-to-end latency over 20 s (100-RB cell)")
    print(f"DES events processed: {runtime.simulator.events_processed}\n")
    within = True
    for task_id, (_, latency) in latency_series(runtime.last_requests).items():
        task = runtime.problem.task(task_id)
        ticket = runtime.tickets[task_id]
        print(
            f"task {task_id} (limit {task.max_latency_s * 1e3:.0f} ms, "
            f"slice {ticket.radio_blocks} RBs, rate {ticket.granted_rate:.1f} req/s)"
        )
        print(f"  {sparkline(latency, task.max_latency_s)}")
        print(
            f"  mean {latency.mean() * 1e3:6.1f} ms   max {latency.max() * 1e3:6.1f} ms  "
            f"samples {len(latency)}"
        )
        within &= bool((latency <= task.max_latency_s).all())
    print(f"\nall latencies within the task constraints: {'PASS' if within else 'FAIL'}")


if __name__ == "__main__":
    main()

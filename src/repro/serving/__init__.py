"""Edge inference serving runtime — executing admitted request streams.

Where :mod:`repro.edge` *decides* (which tasks, which paths, which
slices), this package *serves*: it drives per-task request streams
through the deployed DNN paths on the discrete-event simulator, with

* :mod:`repro.serving.admission` — token buckets enforcing the solved
  admission ratios ``z_τ``;
* :mod:`repro.serving.queueing` — bounded, deadline-aware per-slice
  queues (FIFO or EDF) with drop accounting, and the ready-queue index
  that lets a dispatcher tick visit only the non-empty ones;
* :mod:`repro.serving.executor` — the worker pool and window ledger
  every executor books on, the batch executor whose shared-block
  prefix cache fuses requests across paths that share frozen blocks,
  plus the tensor-level blockwise runner — the one real-execution
  route: a block's module or its compiled fp32/int8 plan, in process;
* :mod:`repro.serving.metrics` — per-task latency histograms
  (p50/p95/p99), deadline-miss rates, drop reasons and the Fig. 11
  smoothed latency traces;
* :mod:`repro.serving.runtime` — the end-to-end loop on the emulator
  clock, reusing the LTE uplink for transfer time;
* :mod:`repro.serving.waves` / :mod:`repro.serving.engine` — the
  arrival side: whole arrival waves precomputed with numpy,
  closed-form token-bucket admission, pooled request records
  (:mod:`repro.serving.pool`), one DES event per batching window —
  bit-identical to the one-event-per-request reference kept in
  ``tests/oracles.py``.

Entry points: ``ServingRuntime.from_problem(problem).run()`` or the
``repro serve-sim`` CLI command; ``fig11_runtime()`` (``repro emulate``)
is the paper's Sec. V-B validation run as one configuration of it.
"""

from repro.serving.admission import AdmissionGate, TokenBucket
from repro.serving.engine import TaskWave, WavePlan
from repro.serving.executor import BatchExecutor, BlockwiseRunner, WindowReport
from repro.serving.pool import RequestPool
from repro.serving.metrics import (
    LatencyStats,
    ServingMetrics,
    TaskServingMetrics,
    latency_series,
    moving_average,
)
from repro.serving.queueing import (
    DropReason,
    ReadyQueues,
    ServingQueue,
    ServingRequest,
)
from repro.serving.runtime import ServingConfig, ServingRuntime, fig11_runtime

__all__ = [
    "AdmissionGate",
    "BatchExecutor",
    "BlockwiseRunner",
    "DropReason",
    "LatencyStats",
    "ReadyQueues",
    "RequestPool",
    "ServingConfig",
    "ServingMetrics",
    "ServingQueue",
    "ServingRequest",
    "ServingRuntime",
    "TaskServingMetrics",
    "TaskWave",
    "TokenBucket",
    "WavePlan",
    "WindowReport",
    "fig11_runtime",
    "latency_series",
    "moving_average",
]

"""Per-layer spans recorded from outside the program.

The traced pass replaces public callables of ``repro`` with timing
wrappers, resolved by dotted name (:data:`WRAPS`).  Nothing under
``src/`` is edited and the untraced pass never imports this wrapping.
A name that no longer resolves is reported as unresolved with a warning
and its metrics read ``null``; it is never an error, so a refactor that
renames a layer boundary does not break the benchmark.

A span's *self time* is its duration minus the time covered by the
spans it directly caused.  Hot boundaries fire millions of times per
run (``ServingQueue.pop_ready``: one call per queue per tick), so spans
are aggregated per name as they close and only the first ``keep`` are
retained individually (they go into the run's ``--detail`` record).
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable

#: dotted name of a public callable -> span name ("<layer>.<boundary>")
WRAPS: dict[str, str] = {
    "repro.workloads.small_scale_problem": "workloads.build",
    "repro.workloads.large_scale_problem": "workloads.build",
    "repro.workloads.serving_small_scale_problem": "workloads.build",
    "repro.workloads.largescale.replicated_large_scale_problem": "workloads.build",
    "repro.core.heuristic.OffloaDNNSolver.solve": "core.solve",
    "repro.core.aggregate.AggregateSolver.solve": "core.aggregate_solve",
    "repro.core.aggregate.aggregate_problem": "core.aggregate",
    "repro.core.check_constraints": "core.check",
    "repro.serving.runtime.ServingRuntime.from_problem": "edge.admit",
    "repro.serving.runtime.ServingRuntime.run": "serving.run",
    "repro.serving.engine.WavePlan.build": "serving.waveplan_build",
    "repro.serving.engine.WavePlan.push_due": "serving.push_due",
    "repro.serving.queueing.ServingQueue.push": "serving.queue_push",
    "repro.serving.queueing.ServingQueue.pop_ready": "serving.queue_pop",
    "repro.serving.executor.BatchExecutor.dispatch": "serving.dispatch",
    "repro.serving.metrics.TaskServingMetrics.from_requests": "serving.metrics",
    "repro.emulator.simulator.Simulator.run": "emulator.sim_run",
    "repro.emulator.simulator.Simulator.run_until": "emulator.sim_run",
    "repro.emulator.simulator.Simulator.schedule": "emulator.schedule",
    "repro.cluster.executor.ClusterDeployment.place": "cluster.place",
    "repro.cluster.executor.ClusterExecutor.dispatch": "cluster.dispatch",
    "repro.dnn.compile.compile_module": "dnn.compile",
    "repro.dnn.profile_model": "dnn.profile",
}


def resolve(dotted: str):
    """``(owner, attribute)`` for ``dotted``, or ``None`` if it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            getattr(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Wraps callables and aggregates their spans by name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter, keep: int = 2000):
        self.clock = clock
        self.keep = keep
        #: span name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: first ``keep`` spans: (id, parent id or -1, name, start, end)
        self.spans: list[tuple] = []
        self.unresolved: list[str] = []
        self._count = [0]
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed as one span of ``name`` per call."""
        slot = self.totals.setdefault(name, [0, 0.0, 0.0])
        count, stack, spans = self._count, self._stack, self.spans
        clock, keep = self.clock, self.keep

        def traced(*args, **kwargs):
            span_id = count[0]
            count[0] = span_id + 1
            parent = stack[-1] if stack else None
            frame = [0.0, span_id]  # [seconds covered by children, id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if span_id < keep:
                    spans.append(
                        (span_id, parent[1] if parent else -1, name, start, end)
                    )

        traced.__wrapped__ = fn
        return traced

    def install(self, wraps: dict[str, str] = WRAPS) -> None:
        """Replace every resolvable target in ``wraps`` with its wrapper."""
        self.unresolved = []
        for dotted, name in wraps.items():
            target = resolve(dotted)
            if target is None:
                self.unresolved.append(dotted)
                print(f"warning: trace target {dotted} not found", file=sys.stderr)
                continue
            owner, attr = target
            # vars() keeps classmethod/staticmethod descriptors intact
            raw = vars(owner).get(attr, getattr(owner, attr))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, name))
            else:
                wrapped = self.wrap(raw, name)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def take(self) -> dict[str, tuple]:
        """Aggregates since the last call: name -> (calls, total, self)."""
        out = {name: tuple(slot) for name, slot in self.totals.items() if slot[0]}
        for slot in self.totals.values():
            slot[:] = [0, 0.0, 0.0]
        return out

"""Reference implementations the serving data plane is checked against.

:func:`scalar_run` is the one-event-per-request DES the wave engine
replaced: every offered request is an emit event, a token-bucket call
and (if admitted) an arrive event at its uplink delivery, and the
dispatcher is its own event chain.  Only that arrival side lives here;
queue insert, window drain, completion and metrics are the runtime's
own (``repro.serving.runtime._Run``), so a disagreement can only come
from the arrival side.

The dispatcher also used to scan every task on every tick: every serving
queue in :func:`drain_window`, every wave in ``WavePlan.push_due``.
Both scans were replaced by indexes that only touch tasks with work
(:class:`repro.serving.queueing.ReadyQueues`, the due-delivery index of
:class:`repro.serving.engine.WavePlan`).  The scans live on here, as
they were, so tests can drive the same runs through them and demand the
same windows, drops, metrics and trace bytes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.catalog import Catalog
from repro.emulator.simulator import Simulator
from repro.serving.metrics import ServingMetrics
from repro.serving.queueing import DropReason, ServingQueue, ServingRequest
from repro.serving.runtime import ServingRuntime, _Run
from repro.workloads.smallscale import serving_small_scale_problem


def scalar_run(runtime: ServingRuntime) -> ServingMetrics:
    """``runtime.run()`` by the old rule: one DES event per offered request.

    Admission-shed requests are materialized (``runtime.last_requests``
    holds them, in creation order) and traced one by one, so trace bytes
    differ from the wave engine's bulk shed events; everything else —
    metrics, served records, windows, registry instruments — must not.
    """
    sim = Simulator()
    run = _Run(runtime, sim)
    cfg, tracer, gate, cell = run.cfg, run.tracer, run.gate, run.cell
    records: list[ServingRequest] = []

    def emit(task, path, rng) -> None:
        now = sim.now
        request = ServingRequest(
            task_id=task.task_id,
            request_id=len(records),
            path=path,
            created_at=now,
            deadline_at=now + task.max_latency_s,
            bits=path.bits_per_image,
        )
        records.append(request)
        run.collect(task.task_id, request)
        if not gate.allow(task.task_id):
            request.drop_reason = DropReason.ADMISSION
            if tracer.enabled:
                tracer.event_at(
                    "drop.admission",
                    now,
                    cat="serving",
                    track=f"task{task.task_id}",
                    args={"request": request.request_id},
                )
        else:
            run.outstanding += 1
            request.uplink_done_at = cell.enqueue_frame(task.task_id, request.bits, now)
            sim.schedule_at(request.uplink_done_at, lambda: run.push(request))
        rate = task.request_rate * cfg.load_factor
        gap = float(rng.exponential(1.0 / rate)) if cfg.poisson else 1.0 / rate
        if now + gap <= cfg.duration_s:
            sim.schedule(gap, lambda: emit(task, path, rng))

    def dispatch() -> None:
        run.drain_window(sim.now)
        if run.live():
            sim.schedule(cfg.batch_window_s, dispatch)

    if run.served_tasks:
        for task, path in run.served_tasks:
            rng = np.random.default_rng(cfg.seed * 7919 + task.task_id)
            sim.schedule(0.0, lambda t=task, p=path, r=rng: emit(t, p, r))
        sim.schedule(cfg.batch_window_s, dispatch)
        run.attach_probes()
    sim.run()
    sim.run_until(cfg.duration_s)
    runtime.last_requests = records
    return run.metrics()


class FullScanQueues:
    """``ReadyQueues`` by the old rule: visit every queue, every window."""

    def __init__(self, queues: dict[int, ServingQueue]) -> None:
        self._queues = queues
        self._ordered = [(tid, queues[tid]) for tid in sorted(queues)]

    def push(self, request: ServingRequest) -> ServingRequest | None:
        return self._queues[request.task_id].push(request)

    def drain(self, now: float, max_batch: int | None = None):
        window: list[ServingRequest] = []
        all_expired: list[ServingRequest] = []
        for _task_id, queue in self._ordered:
            while max_batch is None or len(window) < max_batch:
                request, expired = queue.pop_ready(now)
                all_expired.extend(expired)
                if request is None:
                    break
                request.dispatched_at = now
                window.append(request)
            if max_batch is not None and len(window) >= max_batch:
                break
        return window, all_expired


def full_scan_push_due(plan, now: float, pool, push, collect) -> None:
    """``WavePlan.push_due`` by the old rule: walk every wave, every tick.

    Scalar conversions per request, no due index, no carry set: a wave
    whose on-tick delivery loses the tie-break is simply met again by
    the next tick's walk.
    """
    for wave in plan.tasks:
        n = len(wave.deliveries)
        if wave.cursor >= n or wave.deliveries[wave.cursor] > now:
            continue
        due = int(np.searchsorted(wave.deliveries, now, side="left") - wave.cursor)
        while (
            wave.cursor + due < n
            and wave.deliveries[wave.cursor + due] == now
            and wave.arrives_before_tick(wave.cursor + due, plan.tick_times)
        ):
            due += 1
        for _ in range(due):
            i = wave.cursor
            arrival_index = int(wave.admitted_idx[i])
            request = pool.acquire(
                task_id=wave.task_id,
                request_id=int(wave.ids[arrival_index]),
                path=wave.path,
                created_at=float(wave.arrivals[arrival_index]),
                deadline_at=float(wave.deadlines[i]),
                bits=wave.bits,
            )
            request.uplink_done_at = float(wave.deliveries[i])
            wave.cursor = i + 1
            collect(wave.task_id, request)
            push(request)


def replicated_serving_problem(k: int):
    """``serving_small_scale_problem(5)`` × ``k``: tasks and budgets scale.

    Replicas share the base tasks' path tuples, so every replica is
    admitted like its original and served work grows with ``k`` — many
    tasks, each with a sparse stream of its own.
    """
    base = serving_small_scale_problem(5)
    tasks = []
    catalog = Catalog()
    for replica in range(k):
        for task in base.tasks:
            task_id = task.task_id + len(base.tasks) * replica
            tasks.append(replace(task, task_id=task_id, name=f"{task.name}-r{replica}"))
            catalog.paths_by_task[task_id] = base.catalog.paths_by_task[task.task_id]
    budgets = replace(
        base.budgets,
        compute_time_s=base.budgets.compute_time_s * k,
        training_budget_s=base.budgets.training_budget_s * k,
        memory_gb=base.budgets.memory_gb * k,
        radio_blocks=base.budgets.radio_blocks * k,
    )
    return replace(base, tasks=tuple(tasks), catalog=catalog, budgets=budgets)

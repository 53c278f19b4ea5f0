"""The wave engine: the arrival side of the serving runtime.

A one-event-per-request DES (the *scalar* reference, kept as
``tests/oracles.py::scalar_run``) costs one event plus one closure per
*offered* request — three heap operations, an allocation, and a
token-bucket call each.  The wave engine replaces all per-request
control flow up to the serving queue with numpy over whole arrival
waves:

1. each task's arrival instants are pre-drawn as one array
   (:func:`repro.serving.waves.arrival_times`, bit-identical to the
   scalar emit chain);
2. token-bucket admission is evaluated in closed form over the wave
   (:func:`repro.serving.waves.wave_admissions`) — requests the gate
   sheds are *counted*, never materialized;
3. uplink deliveries of the admitted subset replay the slice FIFO as
   an array scan (:func:`repro.serving.waves.fifo_deliveries`);
4. admitted requests are materialized from a freelist pool and pushed
   into their serving queues in delivery order by the dispatcher tick
   itself — one DES event per batching window, not one per request —
   and the tick finds them through one index over all waves' deliveries,
   so its cost follows the requests due, not the number of tasks.

**Bit-exactness.**  The engine reproduces the scalar reference's
results exactly (served set, drop reasons, metrics) on any workload
the runtime generates.  The one subtle piece is the window boundary: when
a request's uplink delivery lands *exactly* on a dispatcher tick, the
scalar DES breaks the tie by schedule order — the arrive event wins
iff its emit chain reached the shared instant before the dispatch
chain did.  :meth:`TaskWave.arrives_before_tick` replays that
comparison from the recorded chains (it recurses past repeated exact
ties, which float-accumulated grids make vanishingly rare but the
``t = 0`` wave start makes real).

What the engine deliberately does **not** reproduce is per-request
observability *between* windows: admission-shed trace events are
emitted in bulk (same payloads, per-task order) and sampled gauge
series see queue/bucket state at window granularity.  Registry
counters, histograms, spans of served requests, and every
``ServingMetrics`` number remain bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.serving import waves
from repro.serving.pool import RequestPool
from repro.serving.queueing import ServingRequest

__all__ = ["TaskWave", "WavePlan"]


@dataclass
class TaskWave:
    """One task's precomputed arrival wave."""

    task_id: int
    path: object
    #: every arrival instant of the wave (admitted and shed)
    arrivals: np.ndarray
    #: global request ids, one per arrival (scalar numbering)
    ids: np.ndarray
    #: indices into ``arrivals`` the token bucket admitted
    admitted_idx: np.ndarray
    #: uplink delivery instant per admitted request (slice FIFO)
    deliveries: np.ndarray
    #: deadline per admitted request (``created + L_τ``)
    deadlines: np.ndarray
    bits: float
    #: next admitted request not yet pushed into the serving queue
    cursor: int = 0

    @property
    def offered(self) -> int:
        return len(self.arrivals)

    @property
    def admitted(self) -> int:
        return len(self.admitted_idx)

    @property
    def gated(self) -> int:
        return len(self.arrivals) - len(self.admitted_idx)

    def arrives_before_tick(self, admitted_pos: int, tick_times: list[float]) -> bool:
        """Scalar tie-break for a delivery landing exactly on a tick.

        The scalar DES orders same-time events by schedule sequence.
        The arrive event was scheduled at its request's emit instant;
        the dispatch tick was scheduled at the previous tick (the first
        tick during setup).  When those instants tie too, the
        comparison recurses one generation up each chain — emit ``k``
        was scheduled when emit ``k−1`` fired, tick ``j`` when tick
        ``j−1`` fired — until one chain reaches setup, where initial
        emits are scheduled before the first dispatch tick.
        """
        arrival_index = int(self.admitted_idx[admitted_pos])
        # depth 0 compares the schedulers of the two tied events:
        # emit[arrival_index] vs dispatch tick[len(tick_times) - 2]
        emit_i = arrival_index
        tick_i = len(tick_times) - 2
        while True:
            emit_setup = emit_i < 0
            tick_setup = tick_i < 0
            if emit_setup:
                # initial emits precede the first dispatch schedule
                return True
            if tick_setup:
                return False
            e_inst = float(self.arrivals[emit_i])
            d_inst = tick_times[tick_i]
            if e_inst != d_inst:
                return e_inst < d_inst
            emit_i -= 1
            tick_i -= 1


@dataclass
class WavePlan:
    """All tasks' waves plus the bookkeeping the dispatcher needs."""

    tasks: list[TaskWave]
    #: admission-shed count per task (never materialized)
    gated: dict[int, int]
    total_offered: int = 0
    total_admitted: int = 0
    #: every dispatcher tick instant fired so far (tie-break record)
    tick_times: list[float] = field(default_factory=list)
    #: wave positions holding an on-tick delivery that lost the scalar
    #: tie-break: the due index has moved past it, so the wave is
    #: revisited on the next tick, where the delivery is strictly due
    carry: list[int] = field(default_factory=list)
    # due-delivery index: every admitted delivery of every wave, merged
    # once by (delivery, wave position), and how far ticks have consumed it
    _due_times: np.ndarray = field(init=False, repr=False)
    _due_wave: np.ndarray = field(init=False, repr=False)
    _due_cursor: int = field(init=False, repr=False, default=0)
    #: ``_due_times[_due_cursor]`` as a plain float (``inf`` when
    #: exhausted) — an idle tick returns on one compare, no numpy
    _next_due: float = field(init=False, repr=False, default=float("inf"))

    def __post_init__(self) -> None:
        counts = np.array([wave.admitted for wave in self.tasks], dtype=np.intp)
        deliveries = np.concatenate(
            [wave.deliveries for wave in self.tasks] or [np.empty(0)]
        )
        # stable over a wave-ordered concatenation = (delivery, wave
        # position) order, each wave's entries staying in cursor order
        order = np.argsort(deliveries, kind="stable")
        self._due_times = deliveries[order]
        self._due_wave = np.repeat(
            np.arange(len(self.tasks), dtype=np.int32), counts
        )[order]
        self._next_due = self._due_time(0)

    def _due_time(self, index: int) -> float:
        if index < len(self._due_times):
            return float(self._due_times[index])
        return float("inf")

    @classmethod
    def build(
        cls,
        served_tasks: list[tuple],
        config,
        gate,
        cell,
    ) -> "WavePlan":
        """Precompute every task's wave for one run.

        ``served_tasks`` is the runtime's ``(task, path)`` list; the
        gate's buckets are fast-forwarded to their end-of-run state so
        observability probes and ``served_fraction`` stay meaningful.
        """
        if cell.fading is not None or cell.harq is not None:
            raise ValueError(
                "the wave engine models a plain FIFO uplink; fading/HARQ "
                "cells cannot be served"
            )
        arrivals_per_task = []
        for task, _path in served_tasks:
            rng = np.random.default_rng(config.seed * 7919 + task.task_id)
            rate = task.request_rate * config.load_factor
            arrivals_per_task.append(
                waves.arrival_times(
                    rate, config.duration_s, config.poisson, rng
                )
            )
        ids_per_task = waves.merge_arrival_order(arrivals_per_task)
        task_waves: list[TaskWave] = []
        gated: dict[int, int] = {}
        total_offered = 0
        total_admitted = 0
        for (task, path), arrivals, ids in zip(
            served_tasks, arrivals_per_task, ids_per_task
        ):
            bucket = gate.bucket(task.task_id)
            mask, counts = waves.wave_admissions(bucket.ratio, len(arrivals))
            admitted_idx = np.nonzero(mask)[0]
            n_admitted = len(admitted_idx)
            bucket.fast_forward(len(arrivals), n_admitted)
            admitted_arrivals = arrivals[admitted_idx]
            airtime = cell.transmission_duration(
                task.task_id, path.bits_per_image, now=0.0
            )
            wave = TaskWave(
                task_id=task.task_id,
                path=path,
                arrivals=arrivals,
                ids=ids,
                admitted_idx=admitted_idx,
                deliveries=waves.fifo_deliveries(admitted_arrivals, airtime),
                deadlines=admitted_arrivals + task.max_latency_s,
                bits=path.bits_per_image,
            )
            task_waves.append(wave)
            gated[task.task_id] = wave.gated
            total_offered += wave.offered
            total_admitted += n_admitted
        return cls(
            tasks=task_waves,
            gated=gated,
            total_offered=total_offered,
            total_admitted=total_admitted,
        )

    def begin_tick(self, now: float) -> None:
        """Record a dispatcher tick instant (tie-break bookkeeping)."""
        self.tick_times.append(now)

    def push_due(
        self,
        now: float,
        pool: RequestPool,
        push: Callable[[ServingRequest], None],
        collect: Callable[[int, ServingRequest], None],
    ) -> None:
        """Materialize and enqueue every request delivered by ``now``.

        Requests with delivery strictly before the tick always join it;
        a delivery exactly *on* the tick joins only when the scalar DES
        would have fired its arrive event first
        (:meth:`TaskWave.arrives_before_tick`).  ``push`` runs the
        runtime's queue-insert (backpressure, tracing); ``collect``
        files the record for metrics.

        A tick costs what is due, not the number of tasks: one
        ``searchsorted`` over the merged due index names the waves with
        a delivery at or before ``now``; waves with nothing due are
        never looked at.
        """
        if now < self._next_due and not self.carry:
            return
        # waves with a delivery at or before the tick, plus last tick's
        # tie-break losers, visited in wave order like the full scan did
        lo = self._due_cursor
        hi = int(self._due_times.searchsorted(now, "right"))
        visit = self._due_wave[lo:hi].tolist()
        if self.carry:
            visit += self.carry
            self.carry = []
        if len(visit) > 1:
            visit = sorted(set(visit))
        self._due_cursor = hi
        self._next_due = self._due_time(hi)
        for position in visit:
            if self._push_wave(self.tasks[position], now, pool, push, collect):
                self.carry.append(position)

    def _push_wave(
        self,
        wave: TaskWave,
        now: float,
        pool: RequestPool,
        push: Callable[[ServingRequest], None],
        collect: Callable[[int, ServingRequest], None],
    ) -> bool:
        """Push one wave's due requests; True if an on-tick one stays behind."""
        deliveries = wave.deliveries
        n = len(deliveries)
        lo = wave.cursor
        # everything strictly before the tick is due...
        hi = int(deliveries.searchsorted(now, "left"))
        # ...plus on-tick deliveries that win the scalar tie-break
        left_behind = False
        while hi < n and deliveries[hi] == now:
            if not wave.arrives_before_tick(hi, self.tick_times):
                left_behind = True
                break
            hi += 1
        if hi > lo:
            # one conversion per array for the whole due slice
            arrival_index = wave.admitted_idx[lo:hi]
            task_id, path, bits = wave.task_id, wave.path, wave.bits
            for request_id, created_at, deadline_at, delivered_at in zip(
                wave.ids[arrival_index].tolist(),
                wave.arrivals[arrival_index].tolist(),
                wave.deadlines[lo:hi].tolist(),
                deliveries[lo:hi].tolist(),
            ):
                request = pool.acquire(
                    task_id=task_id,
                    request_id=request_id,
                    path=path,
                    created_at=created_at,
                    deadline_at=deadline_at,
                    bits=bits,
                )
                request.uplink_done_at = delivered_at
                collect(task_id, request)
                push(request)
            wave.cursor = hi
        return left_behind

    def emit_shed_traces(self, tracer) -> None:
        """Replay admission-shed drop events into an enabled tracer.

        Same payloads as the scalar path's per-request events, grouped
        per task (a trace at 10⁶ offered requests is dominated by these
        lines; the grouping keeps emission a tight loop).
        """
        for wave in self.tasks:
            shed = np.setdiff1d(
                np.arange(len(wave.arrivals)), wave.admitted_idx
            )
            track = f"task{wave.task_id}"
            for i in shed:
                tracer.event_at(
                    "drop.admission",
                    float(wave.arrivals[i]),
                    cat="serving",
                    track=track,
                    args={"request": int(wave.ids[i])},
                )

    def records_in_creation_order(
        self, per_task: dict[int, list[ServingRequest]]
    ) -> list[ServingRequest]:
        """Merge per-task record lists into global creation order."""
        merged: list[ServingRequest] = []
        for records in per_task.values():
            merged.extend(records)
        if not merged:
            return merged
        ids = np.fromiter(
            (r.request_id for r in merged), dtype=np.int64, count=len(merged)
        )
        order = np.argsort(ids, kind="stable")
        out = np.empty(len(merged), dtype=object)
        out[:] = merged
        return list(out[order])

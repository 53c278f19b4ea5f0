"""The wave engine: the arrival side of the serving runtime.

A one-event-per-request DES (the *scalar* reference, kept as
``tests/oracles.py::scalar_run``) costs one event plus one closure per
*offered* request — three heap operations, an allocation, and an
admission call each.  The wave engine replaces all per-request
control flow up to the serving queue with numpy over whole arrival
waves:

1. each task's arrival instants are pre-drawn as one array
   (:func:`repro.serving.waves.arrival_times`, bit-identical to the
   scalar emit chain);
2. admission is evaluated in closed form over the wave at the task's
   ratio (:func:`repro.serving.waves.wave_admissions`) — requests the
   gate sheds are *counted*, never materialized;
3. uplink deliveries of the admitted subset replay the slice FIFO as
   an array scan (:func:`repro.serving.waves.fifo_deliveries`);
4. the dispatcher's tick grid is laid out before the run exactly as the
   DES will accumulate it, and every admitted delivery is assigned the
   tick that enqueues it (the *tick index*); the tick itself — at most
   one DES event per batching window, not one per request —
   materializes its slice of the index from a freelist pool.  A capped
   dispatcher pushes it into the serving queues.  An uncapped one empties
   every queue on every tick, so a delivery never waits in a queue past
   its own tick and what the queue stage would do to it is fixed by its
   tick's rows: the index also carries each row's *fate* (dispatched,
   queue-full victim or expired), decided in numpy when the plan is
   built, and the tick hands over its window and drops with no queue
   touched.  :meth:`WavePlan.next_due` names the next tick with
   something due, so a dispatcher with empty queues sleeps until it;
5. the pool's records, in the order the ticks acquired them, are the
   index's rows: once the run ends, the index's columns
   (:meth:`WavePlan.record_columns`) are the run's record columns, from
   which the runtime orders ``last_requests`` by id and builds every
   task's metrics, with no per-request bookkeeping while it runs.

**Bit-exactness.**  The engine reproduces the scalar reference's
results exactly (served set, drop reasons, metrics) on any workload
the runtime generates.  The one subtle piece is the window boundary: when
a request's uplink delivery lands *exactly* on a dispatcher tick, the
scalar DES breaks the tie by schedule order — the arrive event wins
iff its emit chain reached the shared instant before the dispatch
chain did.  :meth:`TaskWave.arrives_before_tick` replays that
comparison from the two chains (it recurses past repeated exact ties,
which float-accumulated grids make vanishingly rare but the ``t = 0``
wave start makes real); both chains are known before the first tick,
so the tie is settled when the index is built, not when the tick fires.

What the engine deliberately does **not** reproduce is per-request
observability *between* windows: admission-shed trace events are
emitted in bulk (same payloads, per-task order) and sampled gauge
series see queue state at window granularity.  Registry
counters, histograms, spans of served requests, and every
``ServingMetrics`` number remain bit-identical.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.latency import uplink_tti_s
from repro.core.problem import RadioModel
from repro.serving import waves
from repro.serving.pool import RequestPool
from repro.serving.queueing import DropReason, ServingRequest

if TYPE_CHECKING:
    from repro.edge.controller import AdmissionTicket

__all__ = ["TaskWave", "WavePlan"]

#: one row of the tick index: a materialized request's wave position, id,
#: created / deadline / uplink-delivery instants and fate at its tick,
#: packed so that a tick reads its rows with one slice
ROW = np.dtype(
    [
        ("position", np.int32),
        ("id", np.int64),
        ("created", np.float64),
        ("deadline", np.float64),
        ("delivered", np.float64),
        ("fate", np.int8),
    ]
)

#: a row's fate at its tick under a dispatcher that drains every queue on
#: every tick (``max_batch=None``; decided by :meth:`WavePlan.build`)
DISPATCHED, QUEUE_FULL, EXPIRED = 0, 1, 2

#: what :meth:`WavePlan.push_due` hands back for a tick with nothing due
_IDLE: tuple = ((), (), ())

_task_id = attrgetter("task_id")


@dataclass
class TaskWave:
    """One task's precomputed arrival wave."""

    task_id: int
    path: object
    #: every arrival instant of the wave (admitted and shed)
    arrivals: np.ndarray
    #: global request ids, one per arrival (scalar numbering)
    ids: np.ndarray
    #: indices into ``arrivals`` the admission gate admitted
    admitted_idx: np.ndarray
    #: uplink delivery instant per admitted request (slice FIFO)
    deliveries: np.ndarray
    #: deadline per admitted request (``created + L_τ``)
    deadlines: np.ndarray
    bits: float

    @property
    def offered(self) -> int:
        return len(self.arrivals)

    @property
    def admitted(self) -> int:
        return len(self.admitted_idx)

    @property
    def gated(self) -> int:
        return len(self.arrivals) - len(self.admitted_idx)

    def arrives_before_tick(
        self, admitted_pos: int, tick_times: Sequence[float]
    ) -> bool:
        """Scalar tie-break for a delivery landing exactly on a tick.

        ``tick_times`` are the tick instants up to the tied one.  The
        scalar DES orders same-time events by schedule sequence.
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
    """All tasks' waves plus the tick index the dispatcher walks."""

    tasks: list[TaskWave]
    #: admission-shed count per task (never materialized)
    gated: dict[int, int]
    #: dispatcher period: tick ``k`` fires after ``k + 1`` additions of it
    batch_window_s: float
    total_offered: int = 0
    total_admitted: int = 0
    # tick index: every admitted delivery of every wave, sorted once by
    # (tick that enqueues it, wave position, in-wave position) into one
    # packed array of ``ROW`` records — wave position, request id, created,
    # deadline, delivered; tick ``_times[k]`` owns rows
    # ``_starts[k]:_starts[k + 1]``, one slice
    _rows: np.ndarray = field(init=False, repr=False)
    _starts: list[int] = field(init=False, repr=False)
    #: instants of the ticks with something due, then ``inf``
    _times: list[float] = field(init=False, repr=False)
    #: per entry of ``_times``: the grid instant one window before it
    #: (``0.0`` for the first tick, armed at setup), where the DES
    #: schedules that tick when it steps every window
    _armed: list[float] = field(init=False, repr=False)
    _cursor: int = field(init=False, repr=False, default=0)
    #: what every record of a wave shares, by wave position
    _static: list[tuple] = field(init=False, repr=False)
    #: entries of ``_times`` whose rows are not in ascending task-id order
    #: (fates decided only; wave position is not task-id rank)
    _unsorted: set[int] = field(init=False, repr=False, default_factory=set)

    def __post_init__(self) -> None:
        tasks = self.tasks
        self._static = [(w.task_id, w.path, w.bits) for w in tasks]
        delivered = np.concatenate([w.deliveries for w in tasks] or [np.empty(0)])
        if len(delivered) == 0:
            self._starts, self._times = [0], [float("inf")]
            self._armed = [float("inf")]
            self._rows = np.empty(0, dtype=ROW)
            return
        # the DES reaches tick k by k + 1 float additions of the window
        # (first tick at 0 + w, each next at now + w); cumsum accumulates
        # in the same order, so the grid is the tick instants bit for bit
        ticks = int(float(delivered.max()) / self.batch_window_s) + 3
        grid = np.cumsum(np.full(ticks, self.batch_window_s))
        # deliveries strictly before a tick join it (grid[-1] is past every
        # delivery, so tick 0's grid[tick - 1] never reads as a tie) ...
        tick = np.searchsorted(grid, delivered, "right")
        offsets = np.cumsum([0] + [w.admitted for w in tasks]).tolist()
        for row in np.flatnonzero(grid[tick - 1] == delivered).tolist():
            # ... and one exactly on a tick joins it only if the scalar DES
            # would have fired its arrive event first; the next tick if not.
            # (A wave's ticks stay in order: among equal deliveries a later
            # request's emit chain is never earlier, so it never wins a tie
            # its elder lost.)
            position = bisect_right(offsets, row) - 1
            on = int(tick[row]) - 1
            if tasks[position].arrives_before_tick(
                row - offsets[position], grid[: on + 1]
            ):
                tick[row] = on
        # stable over a wave-ordered concatenation = (tick, wave, in-wave)
        order = np.argsort(tick, kind="stable")
        rows = self._rows = np.zeros(len(order), dtype=ROW)
        rows["position"] = np.repeat(
            np.arange(len(tasks), dtype=np.int32), np.diff(offsets)
        )[order]
        rows["id"] = np.concatenate([w.ids[w.admitted_idx] for w in tasks])[order]
        rows["created"] = np.concatenate(
            [w.arrivals[w.admitted_idx] for w in tasks]
        )[order]
        rows["deadline"] = np.concatenate([w.deadlines for w in tasks])[order]
        rows["delivered"] = delivered[order]
        tick = tick[order]
        first = np.flatnonzero(np.diff(tick, prepend=-1))
        self._starts = first.tolist() + [len(tick)]
        self._times = grid[tick[first]].tolist() + [float("inf")]
        armed = np.concatenate(([0.0], grid))[tick[first]]
        self._armed = armed.tolist() + [float("inf")]

    @classmethod
    def build(
        cls,
        served_tasks: list[tuple],
        config,
        ratios: dict[int, float],
        tickets: dict[int, AdmissionTicket],
        radio: RadioModel,
    ) -> "WavePlan":
        """Precompute every task's wave for one run.

        ``served_tasks`` is the runtime's ``(task, path)`` list,
        ``ratios`` the admission ratio each served task's offered
        stream is metered at; a task's slice — its ticket's RBs, each
        carrying ``radio.bits_per_rb(task)`` — fixes its TTI-granular
        frame airtime.
        """
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
            mask, _counts = waves.wave_admissions(ratios[task.task_id], len(arrivals))
            admitted_idx = np.nonzero(mask)[0]
            n_admitted = len(admitted_idx)
            admitted_arrivals = arrivals[admitted_idx]
            bits = path.bits_per_image
            airtime = uplink_tti_s(
                bits, radio.bits_per_rb(task), tickets[task.task_id].radio_blocks
            )
            deliveries = waves.fifo_deliveries(admitted_arrivals, airtime)
            wave = TaskWave(
                task_id=task.task_id,
                path=path,
                arrivals=arrivals,
                ids=ids,
                admitted_idx=admitted_idx,
                deliveries=deliveries,
                deadlines=admitted_arrivals + task.max_latency_s,
                bits=bits,
            )
            task_waves.append(wave)
            gated[task.task_id] = wave.gated
            total_offered += wave.offered
            total_admitted += n_admitted
        plan = cls(
            tasks=task_waves,
            gated=gated,
            batch_window_s=config.batch_window_s,
            total_offered=total_offered,
            total_admitted=total_admitted,
        )
        if config.max_batch is None:
            plan._decide(config.queue_depth)
        return plan

    def _decide(self, queue_depth: int) -> None:
        """Each row's fate at its tick, for a dispatcher that empties every
        queue on every tick.

        Every queue is then empty when a tick starts, so what the queue
        stage does to a row is a function of its tick's rows alone: with
        ``queue_depth`` earlier rows of its task due on the tick it is the
        queue's backpressure victim; otherwise it expires if even zero
        queueing misses its deadline (``ServingQueue.pop_ready``'s float
        expression, at the tick's instant); otherwise it is dispatched.
        A tick's rows of one wave are contiguous and in delivery order.
        """
        rows = self._rows
        n = len(rows)
        if not n:
            return
        starts = np.asarray(self._starts)
        position = rows["position"]
        # each temporary is freed before the next is made: a repeat run
        # builds its plan beside the last run's pooled records, so they add
        # to its peak.  Run ids: a tick's rows of one wave are one run
        head = np.diff(position, prepend=-1) != 0
        head[starts[:-1]] = True
        run = np.cumsum(head, dtype=np.int32)
        full = np.zeros(n, dtype=bool)
        full[queue_depth:] = run[queue_depth:] == run[:-queue_depth]
        del run
        at = np.repeat(self._times[:-1], np.diff(starts))
        at += np.array([w.path.compute_time_s for w in self.tasks])[position]
        fate = rows["fate"]
        fate[at > rows["deadline"] + 1e-12] = EXPIRED
        del at
        fate[full] = QUEUE_FULL
        # a window takes its queues in ascending task id: a tick whose rows
        # descend in it somewhere is sorted when it fires
        task_id = np.array([w.task_id for w in self.tasks])[position]
        descends = np.flatnonzero(np.diff(task_id, prepend=task_id[0]) < 0)
        tick = np.searchsorted(starts, descends, "right") - 1
        self._unsorted = set(tick[starts[tick] != descends].tolist())

    def next_due(self) -> tuple[float, float]:
        """``(instant, armed at)`` of the next tick with something due.

        ``instant`` is a tick-grid value (``inf`` once every delivery is
        out); ``armed at`` is the grid instant a window before it, where
        a dispatcher stepping every window would have scheduled it.
        """
        return self._times[self._cursor], self._armed[self._cursor]

    def push_due(
        self,
        now: float,
        pool: RequestPool,
        push: Callable[[ServingRequest], None] | None = None,
    ) -> tuple[list, list, list] | None:
        """Materialize every request the tick at ``now`` owns.

        Which tick a delivery joins was settled when the index was built
        (strictly before the tick, or on it and winning the scalar
        tie-break); the tick only slices its rows.  Records are acquired
        from ``pool`` in row order, so once every tick has run the pool's
        records line up with :meth:`record_columns`.  A tick with nothing
        due costs the one compare against the next non-empty tick's
        instant (:meth:`next_due`).

        With ``push`` (a capped dispatcher, and the reference runs), each
        record goes through it: the runtime's queue insert.  Without, the
        plan must have decided its fates (:meth:`build` with
        ``max_batch=None``) and no queue is touched: the tick comes back
        as ``(window, queue-full victims, expired)``, the window and the
        expired in window order (ascending task id, then row order), the
        victims in row order, each record stamped as the queue stage
        would have stamped it.
        """
        cursor = self._cursor
        due_at = self._times[cursor]
        if now < due_at:
            return None if push is not None else _IDLE
        if now != due_at:
            raise RuntimeError(
                f"dispatcher tick at {now!r} skipped the tick at {due_at!r} "
                "the index was built on"
            )
        lo, hi = self._starts[cursor], self._starts[cursor + 1]
        self._cursor = cursor + 1
        static = self._static
        acquire = pool.acquire
        rows = self._rows[lo:hi].tolist()
        if push is not None:
            for position, request_id, created_at, deadline_at, delivered_at, _ in rows:
                task_id, path, bits = static[position]
                request = acquire(task_id, request_id, path, created_at, deadline_at, bits)
                request.uplink_done_at = delivered_at
                push(request)
            return None
        window: list[ServingRequest] = []
        victims: list[ServingRequest] = []
        expired: list[ServingRequest] = []
        for position, request_id, created_at, deadline_at, delivered_at, fate in rows:
            task_id, path, bits = static[position]
            request = acquire(task_id, request_id, path, created_at, deadline_at, bits)
            request.uplink_done_at = delivered_at
            if fate == DISPATCHED:
                request.dispatched_at = now
                window.append(request)
            elif fate == QUEUE_FULL:
                request.drop_reason = DropReason.QUEUE_FULL
                victims.append(request)
            else:
                request.drop_reason = DropReason.DEADLINE
                expired.append(request)
        if cursor in self._unsorted:
            # stable: within a task, row order is queue order
            window.sort(key=_task_id)
            expired.sort(key=_task_id)
        return window, victims, expired

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

    def record_columns(self) -> tuple[np.ndarray, ...]:
        """Wave position, request id, created and deadline instants of
        every row of the index, in row order (plain-array views of the
        packed rows, not copies)."""
        rows = np.asarray(self._rows)
        return tuple(rows[name] for name in ROW.names[:4])

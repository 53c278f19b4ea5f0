"""The serving runtime: executing admitted request streams.

Takes a solved deployment (admitted tasks, their DNN paths, slice
allocations: :func:`~repro.edge.controller.admission_tickets`) and
actually *serves* it on the discrete-event simulator:

1. devices generate requests at the offered rate ``λ_τ`` (optionally
   scaled by ``load_factor`` to study overload);
2. each task's admission gate sheds everything beyond the solved
   admission ratio ``z_τ``, in closed form over the task's whole
   arrival wave (:func:`~repro.serving.waves.wave_admissions`);
3. surviving requests ride the task's radio slice, FIFO, each frame
   for its TTI-granular airtime
   (:func:`~repro.core.latency.uplink_tti_s`);
4. on arrival they enter the task's bounded, deadline-aware
   :class:`~repro.serving.queueing.ServingQueue`, which sheds the
   newcomer when full and expires a request that can no longer make
   its deadline;
5. a periodic dispatcher drains the queues into batching windows which
   the :class:`~repro.serving.executor.BatchExecutor` cuts into jobs
   that fit their members' deadlines, fuses each along shared
   frozen-block prefixes and runs on a worker of its pool.  It ticks on
   a grid of ``batch_window_s`` steps, but only on the ticks that can
   do something: with every queue empty it sleeps to the next tick a
   delivery is due at (:meth:`_Run.tick`).  A dispatcher without a
   ``max_batch`` cap empties every queue on every tick, so steps 4 and
   5 are a function of each tick's deliveries: the wave plan decides
   every delivery's fate (dispatched, queue-full, expired) when it is
   built, by the queues' own rules, and the tick dispatches its window
   with no queue touched;
6. a request's completion is a stamp, not an event: the executor that
   books its job (or its last cluster segment) also writes when its
   result is back, ``result_return_s`` after the finish.  Only an
   observed run schedules one completion event per window, which emits
   the window's request spans when its last result is back;
7. completions (and every drop, with its reason) land in
   :class:`~repro.serving.metrics.ServingMetrics`, built once the run
   ends from the request pool's records in row order (one column of
   completion instants read off them), the tick index's columns and the
   drop counts the run tallied where its drops happened.

An unobserved run therefore processes one DES event per dispatcher tick.

Everything is seeded and event-ordered, so two runs with the same
configuration produce bit-identical metrics.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace as dc_replace
from functools import partial
from math import inf, nextafter
from operator import attrgetter

import numpy as np

from repro.core.heuristic import OffloaDNNSolver
from repro.core.latency import TTI_S, end_to_end_latency
from repro.core.problem import DOTProblem
from repro.core.solution import DOTSolution
from repro.edge.controller import AdmissionTicket, admission_tickets
from repro.emulator.simulator import Simulator
from repro.obs.session import ObsSession
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.serving.engine import WavePlan
from repro.serving.executor import BatchExecutor
from repro.serving.metrics import ServingMetrics, task_metrics
from repro.serving.pool import RequestPool
from repro.serving.queueing import DropReason, ReadyQueues, ServingQueue, ServingRequest
from repro.workloads.smallscale import SMALL_SCALE, small_scale_problem

__all__ = ["ServingConfig", "ServingRuntime", "fig11_runtime"]


def _record_request_spans(
    tracer: Tracer | NullTracer, request: ServingRequest, result_return_s: float
) -> None:
    """Emit one completed request's phase spans on the DES clock.

    The parent ``request`` span covers created → completed; the five
    children (uplink → queue → batch → execute → complete) partition it
    exactly, so their durations sum to the end-to-end latency and nest
    inside the parent on the request's own track.
    """
    track = f"task{request.task_id}.req{request.request_id}"
    cat = "serving"
    created = request.created_at
    finished = request.completed_at - result_return_s
    tracer.record(
        "request",
        created,
        request.completed_at - created,
        cat=cat,
        track=track,
        args={"task": request.task_id, "request": request.request_id},
    )
    tracer.record(
        "uplink", created, request.uplink_done_at - created, cat=cat, track=track
    )
    tracer.record(
        "queue",
        request.uplink_done_at,
        request.dispatched_at - request.uplink_done_at,
        cat=cat,
        track=track,
    )
    tracer.record(
        "batch",
        request.dispatched_at,
        request.started_at - request.dispatched_at,
        cat=cat,
        track=track,
    )
    tracer.record(
        "execute", request.started_at, finished - request.started_at, cat=cat, track=track
    )
    tracer.record(
        "complete", finished, request.completed_at - finished, cat=cat, track=track
    )


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving run."""

    #: seconds of request generation (virtual time; the run then drains)
    duration_s: float = 10.0
    #: dispatcher period — requests arriving within one window batch
    batch_window_s: float = 0.005
    queue_depth: int = 32
    num_workers: int = 1
    prefix_cache: bool = True
    #: per-tick drain cap: at most this many requests leave the queues per
    #: dispatcher tick; the executor cuts them into jobs (1 = one frame per
    #: job, the Fig. 11 regime).  None drains everything, so no request
    #: waits in a queue past its tick: the wave plan then decides each
    #: request's window or drop when it is built and no queue is touched
    max_batch: int | None = None
    #: Poisson arrivals if True, deterministic spacing otherwise
    poisson: bool = False
    #: offered-load multiplier on every task's ``λ_τ``
    load_factor: float = 1.0
    #: downlink result-return time (tiny payload)
    result_return_s: float = 0.002
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("duration_s", "batch_window_s", "load_factor"):
            if not 0.0 < getattr(self, name) < inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 0.0 <= self.result_return_s < inf:
            raise ValueError("result_return_s must be finite and >= 0")


@dataclass
class ServingRuntime:
    """Drives request streams through a deployed DOT solution."""

    problem: DOTProblem
    tickets: dict[int, AdmissionTicket]
    solution: DOTSolution
    config: ServingConfig = field(default_factory=ServingConfig)
    #: optional observability session — request-lifecycle spans on the
    #: DES clock, registry counters/histograms, and sampled gauges
    obs: ObsSession | None = None
    #: optional multi-node fabric (:class:`repro.cluster.executor.
    #: ClusterDeployment`): when set, windows execute across the
    #: deployment's placed segments instead of the local worker pool
    cluster: object | None = None

    # run state (rebuilt by every run() call)
    simulator: Simulator = field(init=False, repr=False)
    executor: object = field(init=False, repr=False)
    #: freelist of request records, reused across runs
    pool: RequestPool = field(init=False, repr=False, default_factory=RequestPool)
    _last_requests: list[ServingRequest] = field(
        init=False, repr=False, default_factory=list
    )
    #: a cluster run's records whose ``hops`` are still table rows
    _hops_unfilled: bool = field(init=False, repr=False, default=False)

    @property
    def last_requests(self) -> list[ServingRequest]:
        """Every request record of the last run (completed and dropped).

        A cluster run books its hops as rows; the first read hands each
        record its batch's ``hops`` (``ClusterExecutor.fill_hops``).
        """
        if self._hops_unfilled:
            self._hops_unfilled = False
            self.executor.fill_hops()
        return self._last_requests

    @last_requests.setter
    def last_requests(self, records: list[ServingRequest]) -> None:
        self._hops_unfilled = False
        self._last_requests = records

    @classmethod
    def from_problem(
        cls,
        problem: DOTProblem,
        config: ServingConfig | None = None,
        solver: object | None = None,
    ) -> "ServingRuntime":
        """Solve ``problem`` (OffloaDNN by default) and ticket its solution."""
        solution = (solver or OffloaDNNSolver()).solve(problem)
        return cls(
            problem=problem,
            tickets=admission_tickets(problem, solution),
            solution=solution,
            config=config or ServingConfig(),
        )

    def with_config(self, **changes) -> "ServingRuntime":
        """Same deployment, different run knobs (e.g. prefix_cache=False)."""
        return dc_replace(self, config=dc_replace(self.config, **changes))

    PROMISE_HEADER = ["task", "L ms", "promised ms", "p95 ms", "on time %"]

    def promise_rows(self, metrics: ServingMetrics) -> list[list]:
        """Per admitted task: what the solver promised against what ran.

        ``promised`` is constraint (1g)'s left-hand side for the solved
        path and slice, ``end_to_end_latency``: uplink at the slice's rate
        plus the path's compute time, no queueing, no batching.  Delivered
        p95 and the on-time share of completed requests come from
        ``metrics`` (``-`` for a task that completed nothing).
        """
        rows = []
        for task in self.problem.tasks:
            if not self.tickets[task.task_id].admitted:
                continue
            assignment = self.solution.assignment(task)
            promised = end_to_end_latency(
                assignment.path, assignment.radio_blocks,
                self.problem.radio.bits_per_rb(task),
            )
            served = metrics.tasks[task.task_id]
            if served.completed:
                p95 = served.latency.p95_s * 1e3
                on_time = 100.0 * (1.0 - served.deadline_miss_rate)
            else:
                p95 = on_time = "-"
            rows.append(
                [task.task_id, task.max_latency_s * 1e3, promised * 1e3, p95, on_time]
            )
        return rows

    def run(self) -> ServingMetrics:
        """Execute one seeded serving simulation and summarize it."""
        # the pool recycles the last run's records: let their list go now
        self.last_requests = []
        sim = Simulator()
        run = _Run(self, sim)
        if run.served_tasks:
            run.start_waves()
            run.attach_probes()
        sim.run()
        # quiet or empty deployments: still advance the clock to the
        # configured horizon (Simulator.run_until works on an empty queue)
        sim.run_until(self.config.duration_s)
        # the run's record: the pool's records in the tick index's row
        # order, which is the order push_due acquired them in (each
        # temporary goes once used: this is where a run's memory peaks)
        records = self.pool.records()
        position, ids, created, deadline = run.plan.record_columns()
        completed = np.fromiter(
            map(attrgetter("completed_at"), records), float, len(records)
        )
        in_rows = np.fromiter(records, dtype=object, count=len(records))
        del records
        self.last_requests = in_rows[np.argsort(ids)].tolist()
        del in_rows
        self._hops_unfilled = self.cluster is not None
        return run.metrics(run.task_of(position), created, deadline, completed)


def fig11_runtime(
    num_tasks: int = 5, duration_s: float = 20.0, seed: int = 0
) -> ServingRuntime:
    """The Sec. V-B experiment (Fig. 11) as a runtime configuration.

    Colosseum dedicates the whole 20 MHz cell (100 RBs) to the
    experiment, so the radio budget is widened relative to the numerical
    small-scale scenario.  One frame per job on one FIFO GPU, one
    dispatcher tick per TTI: no frame batches, and a delivered frame
    waits at most a subframe for the GPU queue to see it.
    """
    problem = small_scale_problem(
        num_tasks, params=dc_replace(SMALL_SCALE, radio_blocks=100), seed=seed
    )
    config = ServingConfig(
        duration_s=duration_s, batch_window_s=TTI_S, max_batch=1, num_workers=1,
        seed=seed,
    )
    return ServingRuntime.from_problem(problem, config)


class _Run:
    """One run's data plane: tick → window (queued or fated) → dispatch.

    Everything downstream of the arrival side (queue insert and
    backpressure, FIFO pops, deadline drops, prefix fusion,
    completion timing, metrics) exists once, here.  A capped tick
    pushes its deliveries through :meth:`push` and drains a window with
    :meth:`drain_window`; an uncapped tick takes the window, victims and
    expiries the plan decided when it was built.  Both tally and trace
    their drops with :meth:`drop` and hand the window to :meth:`dispatch`.
    The one-event-per-request reference in ``tests/oracles.py`` drives its
    own arrival events into :meth:`push` and :meth:`drain_window`, so
    its parity with :meth:`tick` is a property of the arrival side and
    the plan's fates alone (``tests/oracles.py::queued_ticks`` drives the
    uncapped tick through the queues too).

    A window's completion is a stamp: the executor writes each request's
    ``completed_at`` where it books the request's job, and the run keeps
    only the instant the last result is back (:attr:`last_done`, which
    :meth:`live` reads).  An observed run also schedules :meth:`complete`
    there, once per window, for the request spans and the in-flight count
    the ``serving.outstanding`` gauge samples.

    The run keeps no per-request bookkeeping for its summary: each drop
    is counted in :attr:`drops` where it happens (a queue-full victim or
    an expiry in :meth:`drop`, a batch the cluster lost mid-execution in
    ``ClusterExecutor._drop_batch``, which tallies into the same
    counter), and :meth:`metrics` reads everything else off the record
    columns it is handed once the run ends.
    """

    def __init__(self, runtime: ServingRuntime, sim: Simulator) -> None:
        cfg = self.cfg = runtime.config
        self.runtime = runtime
        self.sim = runtime.simulator = sim
        self.tracer: Tracer | NullTracer = NULL_TRACER
        if runtime.obs is not None:
            runtime.obs.bind_virtual_clock(lambda: sim.now)
            self.tracer = runtime.obs.virtual
        self.record_hop_spans = None
        # both executors book on the same window ledger
        ledger = dict(
            prefix_cache=cfg.prefix_cache,
            result_return_s=cfg.result_return_s,
            tracer=self.tracer,
        )
        #: dropped records per (task id, drop reason), tallied where they drop
        self.drops: Counter[tuple[int, DropReason]] = Counter()
        if runtime.cluster is not None:
            # lazy import: repro.cluster imports from repro.serving
            from repro.cluster.executor import ClusterExecutor
            from repro.cluster.qos import record_hop_spans

            self.record_hop_spans = record_hop_spans
            runtime.cluster.reset()
            self.executor = ClusterExecutor(
                deployment=runtime.cluster, seed=cfg.seed, **ledger
            )
            # the fabric tallies its mid-execution losses where it drops them
            self.drops = self.executor.drops
        else:
            self.executor = BatchExecutor(num_workers=cfg.num_workers, **ledger)
        runtime.executor = self.executor
        # The ticket grants z_τ·λ_τ requests/s; devices offer
        # λ_τ·load_factor.  The gate meters the granted *rate* against
        # the offered stream, so overload sheds at the gate instead of
        # melting the uplink: effective ratio = min(1, z / load_factor).
        self.ratios: dict[int, float] = {
            tid: min(1.0, ticket.admission_ratio / cfg.load_factor)
            for tid, ticket in runtime.tickets.items()
            if ticket.admitted
        }
        self.queues: dict[int, ServingQueue] = {}
        self.served_tasks = []
        for task in runtime.problem.tasks:
            if not runtime.tickets[task.task_id].admitted:
                continue
            assignment = runtime.solution.assignment(task)
            assert assignment.path is not None
            self.served_tasks.append((task, assignment.path))
            self.queues[task.task_id] = ServingQueue(
                task_id=task.task_id, max_depth=cfg.queue_depth
            )
        # queue selection is its own stage: the index hands each window
        # the non-empty queues in task-id order without scanning the rest
        self.ready = ReadyQueues(self.queues)
        #: empty until :meth:`start_waves` (never, for an empty deployment)
        self.plan = WavePlan(tasks=[], gated={}, batch_window_s=cfg.batch_window_s)
        #: admitted requests not yet dispatched or dropped; the dispatcher
        #: keeps ticking until this drains after generation stops
        self.outstanding = 0
        #: when the last result of a dispatched window is back (see :meth:`live`)
        self.last_done = 0.0
        #: an observed run schedules one completion event per window
        self.observed = runtime.obs is not None
        #: requests of the windows whose completion event is still due
        self.in_flight = 0
        #: last *workload* event time: the sampler keeps ticking past it,
        #: so sim.now alone would make the reported duration depend on
        #: whether tracing was on
        self.work_end = 0.0

    def start_waves(self) -> None:
        """Precompute the arrival waves and schedule the first tick."""
        self.plan = WavePlan.build(
            self.served_tasks,
            self.cfg,
            self.ratios,
            self.runtime.tickets,
            self.runtime.problem.radio,
        )
        self.runtime.pool.reset()
        # every admitted request is outstanding from the start; queue_full,
        # deadline and dispatch decrements drain the count
        self.outstanding = self.plan.total_admitted
        if self.tracer.enabled:
            self.plan.emit_shed_traces(self.tracer)
        self.sim.schedule(self.cfg.batch_window_s, self.tick)

    def live(self) -> bool:
        """Whether the dispatcher (and the sampler) must keep ticking.

        While requests are generated, while one is still to be dispatched
        or dropped, and until the last dispatched result is back.  That is
        the rule the run kept when every window was a completion event and
        every request stayed outstanding until that event fired: an event
        due at T fires before any tick at T.  It was scheduled inside the
        tick that dispatched its window, and every later tick is armed at
        or after that instant — with a higher sequence number when armed
        in that same tick.  So a tick at T saw it pending only if T is
        that dispatching tick (a result back the instant it left, which
        :meth:`drain_window` keeps live by stamping :attr:`last_done` one
        float later).  The sampler's ticks are armed on their own grid and
        can precede the event at its instant: an observed run also counts
        the windows whose event is still due (:attr:`in_flight`).
        """
        now = self.sim.now
        return (
            now < self.cfg.duration_s
            or self.outstanding > 0
            or now < self.last_done
            or self.in_flight > 0
        )

    def push(self, request: ServingRequest) -> None:
        """Queue insert at the request's uplink delivery; may evict."""
        victim = self.ready.push(request)
        if victim is not None:
            self.drop((victim,), DropReason.QUEUE_FULL)

    def drop(
        self,
        victims: Sequence[ServingRequest],
        reason: DropReason,
        at: float | None = None,
    ) -> None:
        """Tally (and trace) records that leave undispatched, in order.

        A queue-full victim drops at its delivery; an expiry at the tick
        that found it expired (``at``).
        """
        self.outstanding -= len(victims)
        drops = self.drops
        for victim in victims:
            drops[victim.task_id, reason] += 1
        if self.tracer.enabled:
            name = f"drop.{reason.value}"
            for victim in victims:
                self.tracer.event_at(
                    name,
                    victim.uplink_done_at if at is None else at,
                    cat="serving",
                    track=f"task{victim.task_id}",
                    args={"request": victim.request_id},
                )

    def tick(self) -> None:
        """One dispatcher tick: take in what is due, dispatch one window.

        A capped dispatcher pushes the tick's deliveries into the serving
        queues and drains at most ``max_batch`` of what they hold.  An
        uncapped one empties every queue on every tick, so nothing is ever
        queued across ticks: the plan decided each delivery's fate when it
        was built, and the tick hands over the window and the drops with
        no queue touched (:meth:`WavePlan.push_due` without ``push``).

        The next tick is one window later, unless every serving queue is
        empty and a delivery is still to come: then every tick before the
        plan's next due instant would find nothing to do, and the
        dispatcher sleeps until that instant, a grid value it reaches
        bit for bit.  It takes the place among same-instant events the
        window-by-window tick would have had (scheduled one window
        before).  Once no delivery is left it steps every window again,
        so the run's tail, ``work_end`` and the duration stay as they were.
        """
        now = self.sim.now
        plan = self.plan
        if self.cfg.max_batch is None:
            window, victims, expired = plan.push_due(now, self.runtime.pool)
            if victims:
                self.drop(victims, DropReason.QUEUE_FULL)
            if expired:
                self.drop(expired, DropReason.DEADLINE, now)
            self.dispatch(window, now)
        else:
            plan.push_due(now, self.runtime.pool, self.push)
            self.drain_window(now)
        if not self.live():
            return
        due, armed_at = plan.next_due()
        if due != inf and not self.ready.holds_work():
            self.sim.schedule_as_of(armed_at, due, self.tick)
        else:
            self.sim.schedule(self.cfg.batch_window_s, self.tick)

    def drain_window(self, now: float) -> None:
        """One batching window out of the serving queues."""
        window, expired = self.ready.drain(now, self.cfg.max_batch)
        if expired:
            self.drop(expired, DropReason.DEADLINE, now)
        self.dispatch(window, now)

    def dispatch(self, window: list[ServingRequest], now: float) -> None:
        """Run a window on the executor (which stamps completions)."""
        if window:
            self.outstanding -= len(window)
            report = self.executor.dispatch(window, now)
            # the window's last job (or segment) is back; every member's own
            # completion was stamped where its job was booked
            done = report.finished_at + self.cfg.result_return_s
            # a result back the instant it left keeps this tick live (see live)
            back = done if done > now else nextafter(now, inf)
            if back > self.last_done:
                self.last_done = back
            if self.observed:
                self.in_flight += len(window)
                self.sim.schedule_at(done, partial(self.complete, window))
        self.work_end = now

    def complete(self, batch: list[ServingRequest]) -> None:
        """An observed window's results are back: its request spans.

        Each request completed when *its* job (cluster: its last segment)
        was done and the result was back, stamped at booking; this event
        fires with the window's last, and a request lost mid-execution
        (cluster: remote_error or transfer_timeout) has no spans.
        """
        self.in_flight -= len(batch)
        if self.tracer.enabled:
            result_return_s = self.cfg.result_return_s
            for request in batch:
                if not request.completed:
                    continue
                _record_request_spans(self.tracer, request, result_return_s)
                if request.hops and self.record_hop_spans is not None:
                    self.record_hop_spans(
                        self.tracer, request.task_id, request.request_id, request.hops
                    )

    def attach_probes(self) -> None:
        """Sampled gauges of an observed run: queues, executor."""
        obs = self.runtime.obs
        if obs is None:
            return
        sim, executor = self.sim, self.executor
        sampler = obs.sampler()
        for tid, queue in self.queues.items():
            sampler.add_probe(f"queue.depth.task{tid}", lambda q=queue: len(q))
        # admitted requests not yet completed or dropped: the undispatched
        # ones and those of the windows whose completion event is still due
        sampler.add_probe(
            "serving.outstanding", lambda: self.outstanding + self.in_flight
        )
        sampler.add_probe(
            "executor.busy_workers", lambda: executor.busy_workers(sim.now)
        )
        sampler.add_probe("executor.windows", lambda: len(executor.windows))
        sampler.add_probe("executor.prefix_merges", lambda: executor.prefix_merges)
        if self.runtime.cluster is not None:
            executor.qos.add_probes(sampler, lambda: sim.now)
        sampler.attach(sim, while_fn=self.live)

    def task_of(self, position: np.ndarray) -> np.ndarray:
        """Each row's index in the problem's task list, from its wave position."""
        index = {task.task_id: i for i, task in enumerate(self.runtime.problem.tasks)}
        served = [index[task.task_id] for task, _path in self.served_tasks]
        return np.asarray(served, dtype=np.intp)[position]

    def metrics(
        self,
        task_of: np.ndarray,
        created: np.ndarray,
        deadline: np.ndarray,
        completed: np.ndarray,
    ) -> ServingMetrics:
        """Summarize the finished run from its record columns.

        Row ``i`` is a materialized request of the problem's
        ``task_of[i]``-th task, with its created, deadline and completion
        instants (NaN unless it completed); each task's rows are in
        creation order.  Drops come from the run's tallies and
        admission-shed offers, never materialized, from the plan's counts.
        """
        executor = self.executor
        metrics = ServingMetrics(
            duration_s=max(self.cfg.duration_s, self.work_end),
            total_compute_s=executor.total_compute_s,
            compute_saved_s=executor.compute_saved_s,
            windows=len(executor.windows),
            prefix_merges=executor.prefix_merges,
        )
        obs = self.runtime.obs
        metrics.tasks = task_metrics(
            [task.task_id for task in self.runtime.problem.tasks],
            task_of,
            created,
            deadline,
            completed,
            self.drops,
            self.plan.gated,
            registry=obs.registry if obs is not None else None,
        )
        return metrics

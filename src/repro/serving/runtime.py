"""The serving runtime: executing admitted request streams.

Takes an :class:`~repro.edge.controller.OffloaDNNController` deployment
(admitted tasks, their DNN paths, slice allocations) and actually
*serves* it on the discrete-event simulator:

1. devices generate requests at the offered rate ``λ_τ`` (optionally
   scaled by ``load_factor`` to study overload);
2. the per-task :class:`~repro.serving.admission.TokenBucket` sheds
   everything beyond the solved admission ratio ``z_τ``;
3. surviving requests ride the task's radio slice through
   :class:`~repro.emulator.lte.LteCell` (TTI-granular, FIFO per slice);
4. on arrival they enter the task's bounded, deadline-aware
   :class:`~repro.serving.queueing.ServingQueue`;
5. a periodic dispatcher drains the queues into batching windows which
   the :class:`~repro.serving.executor.BatchExecutor` fuses along
   shared frozen-block prefixes and runs on its worker pool;
6. completions (and every drop, with its reason) land in
   :class:`~repro.serving.metrics.ServingMetrics`.

Everything is seeded and event-ordered, so two runs with the same
configuration produce bit-identical metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from repro.core.heuristic import OffloaDNNSolver
from repro.core.problem import DOTProblem
from repro.core.solution import DOTSolution
from repro.edge.controller import AdmissionTicket, OffloaDNNController
from repro.edge.resources import Gpu
from repro.edge.vim import VirtualInfrastructureManager
from repro.emulator.lte import LteCell
from repro.emulator.simulator import Simulator
from repro.obs.session import ObsSession
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.radio.slicing import SliceManager
from repro.serving.admission import AdmissionGate
from repro.serving.engine import WavePlan
from repro.serving.executor import BatchExecutor
from repro.serving.metrics import ServingMetrics, TaskServingMetrics
from repro.serving.pool import RequestPool
from repro.serving.queueing import (
    DropReason,
    ReadyQueues,
    ServingQueue,
    ServingRequest,
)

__all__ = ["ServingConfig", "ServingRuntime"]


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
    queue_policy: str = "edf"
    queue_depth: int = 32
    num_workers: int = 1
    #: marginal batch cost factor (see :mod:`repro.serving.executor`)
    batch_efficiency: float = 0.5
    prefix_cache: bool = True
    #: data-parallel processes per window (``repro serve-sim --procs``);
    #: models :class:`repro.serving.parallel.ParallelBackend` sharding
    num_procs: int = 1
    #: per-shard scatter/gather overhead charged when ``num_procs > 1``
    shard_overhead_s: float = 0.0005
    #: cap on requests fused into one window (None = drain everything)
    max_batch: int | None = None
    #: Poisson arrivals if True, deterministic spacing otherwise
    poisson: bool = False
    #: offered-load multiplier on every task's ``λ_τ``
    load_factor: float = 1.0
    #: downlink result-return time (tiny payload)
    result_return_s: float = 0.002
    #: token-bucket burst in requests
    admission_burst: float = 1.0
    #: data-plane engine: ``"vector"`` precomputes whole arrival waves
    #: (numpy, pooled records, one event per window — the 10⁵–10⁶
    #: request path), ``"scalar"`` is the one-event-per-request DES
    #: reference the vector path is bit-identical to
    engine: str = "vector"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.engine not in ("vector", "scalar"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.batch_window_s <= 0:
            raise ValueError("batch_window_s must be positive")
        if self.load_factor <= 0:
            raise ValueError("load_factor must be positive")
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        if self.shard_overhead_s < 0.0:
            raise ValueError("shard_overhead_s must be >= 0")


@dataclass
class ServingRuntime:
    """Drives request streams through a deployed DOT solution."""

    problem: DOTProblem
    tickets: dict[int, AdmissionTicket]
    solution: DOTSolution
    slice_manager: SliceManager
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
    #: freelist reused across runs (vector engine request records)
    pool: RequestPool = field(init=False, repr=False, default_factory=RequestPool)
    #: every request record of the last run (completed and dropped)
    last_requests: list[ServingRequest] = field(
        init=False, repr=False, default_factory=list
    )

    @classmethod
    def from_problem(
        cls,
        problem: DOTProblem,
        config: ServingConfig | None = None,
        solver: object | None = None,
    ) -> "ServingRuntime":
        """Admit ``problem`` through a fresh controller and wrap the result."""
        budgets = problem.budgets
        vim = VirtualInfrastructureManager(
            gpus=(
                Gpu(
                    gpu_id=0,
                    vram_gb=budgets.memory_gb,
                    compute_share=budgets.compute_time_s,
                ),
            )
        )
        slice_manager = SliceManager(capacity_rbs=budgets.radio_blocks)
        controller = OffloaDNNController(
            vim=vim,
            slice_manager=slice_manager,
            radio=problem.radio,
            solver=solver or OffloaDNNSolver(),
            alpha=problem.alpha,
            training_budget_s=budgets.training_budget_s,
        )
        tickets = controller.handle_admission_requests(problem.tasks, problem.catalog)
        assert controller.last_solution is not None
        return cls(
            problem=problem,
            tickets=tickets,
            solution=controller.last_solution,
            slice_manager=slice_manager,
            config=config or ServingConfig(),
        )

    def with_config(self, **changes) -> "ServingRuntime":
        """Same deployment, different run knobs (e.g. prefix_cache=False)."""
        return dc_replace(self, config=dc_replace(self.config, **changes))

    def run(self) -> ServingMetrics:
        """Execute one seeded serving simulation and summarize it."""
        cfg = self.config
        obs = self.obs
        vector = cfg.engine == "vector"
        # the wave engine never hands event objects to callers, so the
        # simulator may recycle them through its freelist
        sim = self.simulator = Simulator(recycle_events=vector)
        tracer: Tracer | NullTracer = NULL_TRACER
        if obs is not None:
            obs.bind_virtual_clock(lambda: sim.now)
            tracer = obs.virtual
        cell = LteCell(slice_manager=self.slice_manager)
        cell.reset()
        record_hop_spans = None
        if self.cluster is not None:
            # lazy import: repro.cluster imports from repro.serving
            from repro.cluster.executor import ClusterExecutor
            from repro.cluster.qos import record_hop_spans

            self.cluster.reset()
            executor = self.executor = ClusterExecutor(
                deployment=self.cluster,
                batch_efficiency=cfg.batch_efficiency,
                prefix_cache=cfg.prefix_cache,
                seed=cfg.seed,
                tracer=tracer,
            )
        else:
            executor = self.executor = BatchExecutor(
                num_workers=cfg.num_workers,
                batch_efficiency=cfg.batch_efficiency,
                prefix_cache=cfg.prefix_cache,
                num_procs=cfg.num_procs,
                shard_overhead_s=cfg.shard_overhead_s,
                tracer=tracer,
            )
        # The ticket grants z_τ·λ_τ requests/s; devices offer
        # λ_τ·load_factor.  The bucket meters the granted *rate* against
        # the offered stream, so overload sheds at the gate instead of
        # melting the uplink: effective ratio = min(1, z / load_factor).
        gate = AdmissionGate.from_ratios(
            {
                tid: min(1.0, ticket.admission_ratio / cfg.load_factor)
                for tid, ticket in self.tickets.items()
                if ticket.admitted
            },
            burst=cfg.admission_burst,
        )
        queues: dict[int, ServingQueue] = {}
        records: list[ServingRequest] = []
        # admitted requests not yet completed or dropped; the dispatcher
        # keeps ticking until this drains after generation stops.
        # work_end tracks the last *workload* event time: the sampler
        # keeps ticking past it, so sim.now alone would make the
        # reported duration depend on whether tracing was on.
        state = {"outstanding": 0, "next_id": 0, "work_end": 0.0}

        served_tasks = []
        for task in self.problem.tasks:
            ticket = self.tickets[task.task_id]
            if not ticket.admitted:
                continue
            assignment = self.solution.assignment(task)
            assert assignment.path is not None
            served_tasks.append((task, assignment.path))
            queues[task.task_id] = ServingQueue(
                task_id=task.task_id,
                policy=cfg.queue_policy,
                max_depth=cfg.queue_depth,
            )
        # queue selection is its own stage: the index hands each window
        # the non-empty queues in task-id order without scanning the rest
        ready = ReadyQueues(queues)

        def drain_window(now: float) -> None:
            """One batching window: pop, dispatch, schedule completion.

            Shared verbatim by both engines — everything downstream of
            the serving queues (EDF/FIFO pops, deadline drops, prefix
            fusion, completion timing) is one code path, which is what
            makes cross-engine bit-identity a property of the arrival
            side alone.
            """
            window, expired = ready.drain(now, cfg.max_batch)
            state["outstanding"] -= len(expired)
            if tracer.enabled:
                for victim in expired:
                    tracer.event_at(
                        "drop.deadline",
                        now,
                        cat="serving",
                        track=f"task{victim.task_id}",
                        args={"request": victim.request_id},
                    )
            if window:
                report = executor.dispatch(window, now)
                completed_at = report.finished_at + cfg.result_return_s

                def complete(batch=window, at=completed_at) -> None:
                    for request in batch:
                        if request.dropped:
                            # lost mid-execution (cluster: remote_error
                            # or transfer_timeout); never completes
                            continue
                        done = request.service_done_at
                        # cluster segments finish per task; single-node
                        # windows finish together (done is NaN there)
                        request.completed_at = (
                            done + cfg.result_return_s if done == done else at
                        )
                    state["outstanding"] -= len(batch)
                    if tracer.enabled:
                        for request in batch:
                            if not request.completed:
                                continue
                            _record_request_spans(
                                tracer, request, cfg.result_return_s
                            )
                            if request.hops and record_hop_spans is not None:
                                record_hop_spans(
                                    tracer,
                                    request.task_id,
                                    request.request_id,
                                    request.hops,
                                )

                sim.schedule_at(completed_at, complete)
            state["work_end"] = now

        plan: WavePlan | None = None
        wave_records: dict[int, list[ServingRequest]] = {}
        if vector and served_tasks:
            plan = WavePlan.build(served_tasks, cfg, gate, cell)
            self.pool.reset()
            wave_records = {task.task_id: [] for task in self.problem.tasks}
            # every admitted request is in flight from the engine's
            # point of view; the same decrements as the scalar path
            # (queue_full, deadline, completion) drain the count, so the
            # tick chain keeps running exactly as long as scalar's does
            state["outstanding"] = plan.total_admitted
            if tracer.enabled:
                plan.emit_shed_traces(tracer)

            def wave_push(request: ServingRequest) -> None:
                victim = ready.push(request)
                if victim is not None:
                    state["outstanding"] -= 1
                    if tracer.enabled:
                        # scalar traces this at the arrive event, whose
                        # time is the newcomer's uplink delivery
                        tracer.event_at(
                            "drop.queue_full",
                            request.uplink_done_at,
                            cat="serving",
                            track=f"task{victim.task_id}",
                            args={"request": victim.request_id},
                        )

            def wave_collect(task_id: int, request: ServingRequest) -> None:
                wave_records[task_id].append(request)

            def wave_tick() -> None:
                now = sim.now
                plan.begin_tick(now)
                plan.push_due(now, self.pool, wave_push, wave_collect)
                drain_window(now)
                if now < cfg.duration_s or state["outstanding"] > 0:
                    sim.schedule(cfg.batch_window_s, wave_tick)

            sim.schedule(cfg.batch_window_s, wave_tick)
        elif served_tasks:

            def emit(task, path, rng) -> None:
                now = sim.now
                request = ServingRequest(
                    task_id=task.task_id,
                    request_id=state["next_id"],
                    path=path,
                    created_at=now,
                    deadline_at=now + task.max_latency_s,
                    bits=path.bits_per_image,
                )
                state["next_id"] += 1
                records.append(request)
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
                    state["outstanding"] += 1
                    delivery = cell.enqueue_frame(task.task_id, request.bits, now)
                    request.uplink_done_at = delivery

                    def arrive() -> None:
                        victim = ready.push(request)
                        if victim is not None:
                            state["outstanding"] -= 1
                            if tracer.enabled:
                                tracer.event_at(
                                    "drop.queue_full",
                                    sim.now,
                                    cat="serving",
                                    track=f"task{victim.task_id}",
                                    args={"request": victim.request_id},
                                )

                    sim.schedule_at(delivery, arrive)
                rate = task.request_rate * cfg.load_factor
                gap = (
                    float(rng.exponential(1.0 / rate)) if cfg.poisson else 1.0 / rate
                )
                if now + gap <= cfg.duration_s:
                    sim.schedule(gap, lambda: emit(task, path, rng))

            for task, path in served_tasks:
                rng = np.random.default_rng(cfg.seed * 7919 + task.task_id)
                sim.schedule(0.0, lambda t=task, p=path, r=rng: emit(t, p, r))

            def dispatch() -> None:
                now = sim.now
                drain_window(now)
                if now < cfg.duration_s or state["outstanding"] > 0:
                    sim.schedule(cfg.batch_window_s, dispatch)

            sim.schedule(cfg.batch_window_s, dispatch)
        if obs is not None and served_tasks:
            sampler = obs.sampler()
            for task, _path in served_tasks:
                tid = task.task_id
                queue = queues[tid]
                sampler.add_probe(f"queue.depth.task{tid}", lambda q=queue: len(q))
                bucket = gate.bucket(tid)
                sampler.add_probe(
                    f"admission.credit.task{tid}", lambda b=bucket: b.credit
                )
            sampler.add_probe("serving.outstanding", lambda: state["outstanding"])
            sampler.add_probe(
                "executor.busy_workers", lambda: executor.busy_workers(sim.now)
            )
            sampler.add_probe("executor.windows", lambda: len(executor.windows))
            sampler.add_probe(
                "executor.prefix_merges", lambda: executor.prefix_merges
            )
            if self.cluster is not None:
                executor.qos.add_probes(sampler, lambda: sim.now)
            sampler.attach(
                sim,
                while_fn=lambda: (
                    sim.now < cfg.duration_s or state["outstanding"] > 0
                ),
            )
        sim.run()
        # quiet or empty deployments: still advance the clock to the
        # configured horizon (Simulator.run_until works on an empty queue)
        sim.run_until(cfg.duration_s)

        if plan is not None:
            # the wave engine materializes only admitted requests;
            # admission-shed offers reach the metrics as counts
            by_task = wave_records
            self.last_requests = plan.records_in_creation_order(wave_records)
        else:
            self.last_requests = records
            by_task = {task.task_id: [] for task in self.problem.tasks}
            for request in records:
                by_task[request.task_id].append(request)
        metrics = ServingMetrics(
            duration_s=max(cfg.duration_s, state["work_end"]),
            total_compute_s=executor.total_compute_s,
            compute_saved_s=executor.compute_saved_s,
            windows=len(executor.windows),
            prefix_merges=executor.prefix_merges,
        )
        registry = obs.registry if obs is not None else None
        gated = plan.gated if plan is not None else {}
        for task_id, reqs in by_task.items():
            metrics.tasks[task_id] = TaskServingMetrics.from_requests(
                task_id, reqs, registry=registry, gated=gated.get(task_id, 0)
            )
        return metrics

"""Reference implementations the serving data plane is checked against.

:func:`scalar_run` is the one-event-per-request DES the wave engine
replaced: every offered request is an emit event, a call to its task's
:class:`TokenBucket` (the per-request admission gate that
``waves.wave_admissions`` evaluates in closed form) and (if admitted)
a frame on its task's slice (:class:`SliceFifo`, the per-frame FIFO
``waves.fifo_deliveries`` replays over a wave) and an arrive event at
its delivery, and the dispatcher is its own event chain.  Only that
arrival side lives here; queue insert, window drain, completion and
metrics are the runtime's own (``repro.serving.runtime._Run``), so a
disagreement can only come from the arrival side.

The dispatcher also used to scan every task on every tick: every serving
queue in :func:`drain_window`, every wave in ``WavePlan.push_due``.
Both scans were replaced by indexes that only touch tasks with work
(:class:`repro.serving.queueing.ReadyQueues`, the tick index of
:class:`repro.serving.engine.WavePlan`).  The scans live on here, as
they were, so tests can drive the same runs through them and demand the
same windows, drops, metrics and trace bytes.  And the dispatcher used
to tick every window, due or not; :func:`every_window_tick` is that
rule, against which the tick that sleeps through idle windows must give
the same records, trace bytes and gauge series.  Each window's
completion used to be an event, too, which stamped its requests and
held them outstanding until it fired; :func:`completion_events` patches
that back over the run, and the executors' completion stamps must give
the same records, drop counts, run tail, trace bytes and gauge series.
An uncapped dispatcher used to push every due delivery into its serving
queue and pop it out again on the same tick; :func:`queued_ticks`
patches that back over the run, and the fates the plan decides when it
is built must give the same windows, drops, records and trace bytes.

A run's bookends had their own per-task and per-record forms: the
summary was :func:`per_task_metrics` once per task (a registry and a
histogram each, three array conversions of the samples), the creation
order was :func:`records_in_creation_order` over per-task record lists,
and the global numbering a three-key lexsort over every offered arrival
(:func:`lexsort_arrival_order`).  ``repro.serving.metrics.task_metrics``,
the run's id argsort and ``waves.merge_arrival_order`` must give the
same summaries, registry instruments, record order and ids.

So do the per-request window trie (:func:`per_request_window_costs`), a
window's path groups as the executors built them before the job-cost
memo (:func:`path_groups`), and the cluster dispatcher that re-derived
routes, costs and hop records per request
(:func:`per_request_cluster_dispatch`): the executors now cost a
window per distinct (path, block sequence) group and build one hop record
per batch, and must produce the same floats, stamps and draws.  A
node's utilization walked every busy period on each query
(:func:`full_walk_within`); the tracker's running sums must give the
same float.

The solver's scalar ancestors live here too: the per-vertex tree
(:func:`scalar_cliques`, :func:`scalar_first_branch`) that the batched
``build_cliques`` / ``first_branch`` replaced, with the per-item
``r_min`` expression (:func:`minimum_latency_rbs`) it priced vertices by, the O(R) admission
enumeration (:func:`admission_by_enumeration`) behind the closed form
on the slice grid, and the water-fill that scanned every item after the
radio pool was spent (:func:`per_item_solve_branch`).  So does the
solver whose walks returned one ``(task id, BranchItem)`` per layer
(:func:`item_first_branch`, :func:`item_branches`, :func:`item_allocate`
and the ``item_*_solve`` entry points): the pick-column solver must
return its solutions, assignment order included.  A strict minimizer
of Eq. (1a) over one branch, scipy SLSQP (:func:`solve_branch_convex`),
backs the one claim the structured water-fill is measured by: the
minimizer admits less.

The DNN side has three: :func:`eager_forward` runs a model one layer at
a time, unfused, the arithmetic every compiled plan must reproduce;
:func:`fresh_forward` runs a compiled plan with every buffer in memory
of its own (no arena, no lifetime packing); and
:func:`bfs_pruning_groups` finds pruning groups by breadth-first search
where the product uses a union-find.

The cluster prices an activation hop by its encoded frame size
(``StreamRouter.frame_nbytes``, plain header arithmetic); the encoder
that size was read from is :func:`encode_frame`, the byte-count oracle.

The uplink is an M/D/1 queue when fed Poisson frames; its closed forms
(:func:`md1_mean_sojourn`, :func:`md1_wait_cdf`, :func:`md1_wait_quantile`)
are what the DES's FIFO replay must reproduce.
"""

from __future__ import annotations

import math
import struct
from collections import Counter, deque
from dataclasses import replace
from functools import partial
from unittest.mock import patch

import numpy as np
from scipy.optimize import minimize

from repro.core.catalog import Catalog
from repro.core.heuristic import _apply_margin
from repro.core.latency import full_rate_rbs, uplink_tti_s
from repro.core.objective import objective_value
from repro.core.problem import Budgets
from repro.core.solution import Assignment, AssignmentRuns, DOTSolution
from repro.core.subproblem import (
    _SCAN_EPS,
    ADMISSION_FLOOR,
    BranchAllocation,
    BranchItem,
    _best_admission_for_item,
    _radio_spent,
    solve_branch,
)
from repro.core.tree import (
    BranchState,
    VectorClique,
    _clique_heads,
    build_vector_tree,
    first_branch,
)
from repro.dnn import pruning
from repro.dnn.compile import (
    CompiledModule,
    _batch_shape,
    _Binding,
    _interior,
    _iter_steps,
    _pad_shape,
)
from repro.dnn.graph import Residual, Sequential
from repro.dnn.layers import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
)
from repro.dnn.ops import BN_EPS, conv_output_size
from repro.dnn.resnet import BlockwiseModel
from repro.emulator.simulator import Simulator
from repro.obs.metrics import MetricsRegistry
from repro.serving.executor import _JobCosts, cut_window
from repro.serving.metrics import LatencyStats, ServingMetrics, TaskServingMetrics
from repro.serving.queueing import UNSET, DropReason, ServingQueue, ServingRequest
from repro.serving.runtime import ServingRuntime, _record_request_spans, _Run
from repro.workloads.smallscale import serving_small_scale_problem


class TokenBucket:
    """One task's admission gate, one offered request at a time.

    Every offered request deposits ``ratio`` tokens and serving one costs
    a full token: request ``k`` is admitted iff ``⌊k·z + ε⌋`` exceeds the
    admitted count so far (at most one admission per offered request).
    """

    #: tolerance absorbing float error in the target ``k·z``
    EPS = 1e-12

    def __init__(self, ratio: float) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("ratio must be in [0, 1]")
        self.ratio = ratio
        self.offered = 0
        self.admitted = 0

    def allow(self) -> bool:
        """Meter one offered request; True if it may be served."""
        self.offered += 1
        admitted = math.floor(self.offered * self.ratio + self.EPS) > self.admitted
        self.admitted += admitted
        return admitted


class SliceFifo:
    """The uplink one frame at a time: per-task slices, FIFO per slice.

    A frame starts once the previous frame of its task has left the
    slice (frames from several devices of one task share it) and takes
    its TTI-granular airtime; ``waves.fifo_deliveries`` replays the
    same sequence over a whole wave.  ``slices`` maps a task id to its
    slice: the ticket's RB count and the bits each RB carries.
    """

    def __init__(self, slices: dict[int, tuple[int, float]]) -> None:
        self.slices = slices
        #: virtual time at which each slice is next free
        self._slice_busy_until: dict[int, float] = {}

    def enqueue_frame(self, task_id: int, bits: float, now: float) -> float:
        """Admit a frame into the slice queue; returns its delivery time."""
        start = max(now, self._slice_busy_until.get(task_id, 0.0))
        radio_blocks, bits_per_rb = self.slices[task_id]
        finish = start + uplink_tti_s(bits, bits_per_rb, radio_blocks)
        self._slice_busy_until[task_id] = finish
        return finish

    def reset(self) -> None:
        self._slice_busy_until.clear()


def scalar_run(runtime: ServingRuntime) -> ServingMetrics:
    """``runtime.run()`` by the old rule: one DES event per offered request.

    Admission-shed requests are materialized (``runtime.last_requests``
    holds them, in creation order) and traced one by one, so trace bytes
    differ from the wave engine's bulk shed events; everything else —
    metrics, served records, windows, registry instruments — must not.
    """
    sim = Simulator()
    run = _Run(runtime, sim)
    cfg, tracer = run.cfg, run.tracer
    cell = SliceFifo(
        {
            task.task_id: (
                runtime.tickets[task.task_id].radio_blocks,
                runtime.problem.radio.bits_per_rb(task),
            )
            for task in runtime.problem.tasks
        }
    )
    gate = {task_id: TokenBucket(ratio) for task_id, ratio in run.ratios.items()}
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
        if not gate[task.task_id].allow():
            request.drop_reason = DropReason.ADMISSION
            run.drops[task.task_id, DropReason.ADMISSION] += 1
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
    index = {task.task_id: i for i, task in enumerate(runtime.problem.tasks)}
    return run.metrics(
        np.array([index[r.task_id] for r in records], dtype=np.intp),
        np.array([r.created_at for r in records], dtype=float),
        np.array([r.deadline_at for r in records], dtype=float),
        np.array([r.completed_at for r in records], dtype=float),
    )


def every_window_tick(run: _Run) -> None:
    """``_Run.tick`` by the old rule (patch it over the method): the next
    tick is always one window later, whether or not anything is due."""
    now = run.sim.now
    run.plan.push_due(now, run.runtime.pool, run.push)
    run.drain_window(now)
    if run.live():
        run.sim.schedule(run.cfg.batch_window_s, run.tick)


def _queued_tick(run: _Run) -> None:
    now = run.sim.now
    plan = run.plan
    plan.push_due(now, run.runtime.pool, run.push)
    run.drain_window(now)
    if not run.live():
        return
    due, armed_at = plan.next_due()
    if due != math.inf and not run.ready.holds_work():
        run.sim.schedule_as_of(armed_at, due, run.tick)
    else:
        run.sim.schedule(run.cfg.batch_window_s, run.tick)


def queued_ticks(patch) -> None:
    """``_Run.tick`` by the old rule, patched over it with ``patch`` (a
    ``pytest.MonkeyPatch``): every dispatcher, capped or not, pushes each
    due delivery into its serving queue (``_Run.push``: backpressure) and
    drains a window out of them (``_Run.drain_window``: FIFO pops, expiry,
    task-id order), as an uncapped one did before the plan decided its
    rows' fates when it was built.  The sleep rule is the product's."""
    patch.setattr(_Run, "tick", _queued_tick)


def _event_dispatch(run: _Run, window: list[ServingRequest], now: float) -> None:
    if getattr(run.executor, "drops", None) is run.drops:
        run.executor.drops = Counter()  # the event tallies the fabric's losses
    if window:
        report = run.executor.dispatch(window, now)
        for request in window:  # the event stamps them
            request.completed_at = UNSET
        run.sim.schedule_at(
            report.finished_at + run.cfg.result_return_s,
            partial(_event_complete, run, window),
        )
    run.work_end = now


def _event_complete(run: _Run, batch: list[ServingRequest]) -> None:
    result_return_s = run.cfg.result_return_s
    returned_at: dict[float, float] = {}
    for request in batch:
        if request.dropped:
            run.drops[request.task_id, request.drop_reason] += 1
            continue
        done = request.service_done_at
        at = returned_at.get(done)
        if at is None:
            at = returned_at[done] = done + result_return_s
        request.completed_at = at
    run.outstanding -= len(batch)
    if run.tracer.enabled:
        for request in batch:
            if not request.completed:
                continue
            _record_request_spans(run.tracer, request, result_return_s)
            if request.hops and run.record_hop_spans is not None:
                run.record_hop_spans(
                    run.tracer, request.task_id, request.request_id, request.hops
                )


def _event_live(run: _Run) -> bool:
    return run.sim.now < run.cfg.duration_s or run.outstanding > 0


def completion_events(patch) -> None:
    """``_Run``'s completion by the old rule, patched over it with ``patch``
    (a ``pytest.MonkeyPatch``): every window's completion is a DES event at
    ``report.finished_at + result_return_s``, traced or not.

    The event stamps each completed request ``service_done_at +
    result_return_s`` (the executor's own stamp is cleared at dispatch),
    tallies the requests the fabric lost mid-execution and decrements
    ``outstanding``, which counts a request until its window's event has
    fired; ``live`` reads only that count.  The fabric's own loss tally
    goes to a counter nobody reads, so each loss is counted once.
    """
    patch.setattr(_Run, "dispatch", _event_dispatch)
    patch.setattr(_Run, "complete", _event_complete)
    patch.setattr(_Run, "live", _event_live)


class FullScanQueues:
    """``ReadyQueues`` by the old rule: visit every queue, every window."""

    def __init__(self, queues: dict[int, ServingQueue]) -> None:
        self._queues = queues
        self._ordered = [(tid, queues[tid]) for tid in sorted(queues)]

    def push(self, request: ServingRequest) -> ServingRequest | None:
        return self._queues[request.task_id].push(request)

    def holds_work(self) -> bool:
        return any(len(queue) for _task_id, queue in self._ordered)

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


def full_scan_push_due(plan, now: float, pool, push) -> None:
    """``WavePlan.push_due`` by the old rule: walk every wave, every tick.

    No tick index: the scan keeps its own record of the ticks fired and
    one cursor per wave (on the plan it is driving, under ``_scan``),
    settles on-tick ties as the tick fires, and meets a wave whose
    on-tick delivery lost the tie-break again on the next tick's walk.
    Scalar conversions per request.
    """
    tick_times, cursors = plan.__dict__.setdefault(
        "_scan", ([], [0] * len(plan.tasks))
    )
    tick_times.append(now)
    for position, wave in enumerate(plan.tasks):
        n = len(wave.deliveries)
        cursor = cursors[position]
        if cursor >= n or wave.deliveries[cursor] > now:
            continue
        due = int(np.searchsorted(wave.deliveries, now, side="left") - cursor)
        while (
            cursor + due < n
            and wave.deliveries[cursor + due] == now
            and wave.arrives_before_tick(cursor + due, tick_times)
        ):
            due += 1
        for i in range(cursor, cursor + due):
            arrival_index = int(wave.admitted_idx[i])
            request = pool.acquire(
                task_id=wave.task_id,
                request_id=int(wave.ids[arrival_index]),
                path=wave.path,
                created_at=float(wave.arrivals[arrival_index]),
                deadline_at=float(wave.deadlines[i]),
                bits=wave.bits,
                uplink_done_at=float(wave.deliveries[i]),
            )
            cursors[position] = i + 1
            push(request)


def full_scan_next_due(plan) -> tuple[float, float]:
    """``WavePlan.next_due`` under :func:`full_scan_push_due` (patch both).

    The scan settles on-tick ties from the ticks it has seen fire and
    never moves the plan's cursor, so it names no next due tick: the
    runtime ticks every window under it, as it did when the scan was
    the product.
    """
    return math.inf, math.inf


def per_task_metrics(
    task_id: int,
    requests: list[ServingRequest],
    registry: MetricsRegistry | None = None,
    gated: int = 0,
) -> TaskServingMetrics:
    """``TaskServingMetrics.from_requests`` as it was: feed a registry's
    instruments from one task's records, then read the summary back out
    of them (``LatencyStats.from_histogram``: ``np.percentile``, mean and
    max, each over the histogram's sample list)."""
    registry = registry if registry is not None else MetricsRegistry()
    prefix = f"task{task_id}."
    offered = registry.counter(prefix + "offered")
    completed = registry.counter(prefix + "completed")
    misses = registry.counter(prefix + "deadline_misses")
    drop_counters = {
        reason: registry.counter(prefix + f"drops.{reason.value}")
        for reason in DropReason
    }
    latency = registry.histogram(prefix + "latency_s")
    done = late = 0
    dropped = {DropReason.ADMISSION: gated}
    observe = latency.samples.append
    for request in requests:
        reason = request.drop_reason
        if reason is not None:
            dropped[reason] = dropped.get(reason, 0) + 1
        elif request.completed_at == request.completed_at:  # not NaN
            done += 1
            observe(request.completed_at - request.created_at)
            if request.completed_at > request.deadline_at + 1e-12:
                late += 1
    offered.inc(gated + len(requests))
    completed.inc(done)
    misses.inc(late)
    for reason, count in dropped.items():
        drop_counters[reason].inc(count)
    return TaskServingMetrics(
        task_id=task_id,
        offered=int(offered.value),
        admitted=int(offered.value - drop_counters[DropReason.ADMISSION].value),
        completed=int(completed.value),
        deadline_misses=int(misses.value),
        drops={reason: int(c.value) for reason, c in drop_counters.items()},
        latency=LatencyStats.from_histogram(latency),
    )


def records_in_creation_order(
    per_task: dict[int, list[ServingRequest]],
) -> list[ServingRequest]:
    """Per-task record lists merged into global creation order, through
    an object array (what ``run()`` did with the lists ``collect`` filed)."""
    merged: list[ServingRequest] = []
    for records in per_task.values():
        merged.extend(records)
    if not merged:
        return merged
    ids = np.fromiter((r.request_id for r in merged), dtype=np.int64, count=len(merged))
    order = np.argsort(ids, kind="stable")
    out = np.empty(len(merged), dtype=object)
    out[:] = merged
    return list(out[order])


def lexsort_arrival_order(arrivals_per_task: list[np.ndarray]) -> list[np.ndarray]:
    """``waves.merge_arrival_order`` by one stable lexsort over ``(time,
    previous arrival, task position)`` of every offered arrival."""
    if not arrivals_per_task:
        return []
    times = np.concatenate(arrivals_per_task)
    prev = np.concatenate(
        [np.concatenate(([-np.inf], a[:-1])) for a in arrivals_per_task]
    )
    pos = np.concatenate(
        [np.full(len(a), i, dtype=np.int64) for i, a in enumerate(arrivals_per_task)]
    )
    order = np.lexsort((pos, prev, times))
    ids = np.empty(len(times), dtype=np.int64)
    ids[order] = np.arange(len(times), dtype=np.int64)
    bounds = np.cumsum([len(a) for a in arrivals_per_task])[:-1]
    return np.split(ids, bounds)


def path_groups(requests) -> list[tuple]:
    """``(path id, blocks, count)`` per distinct path, in first-seen order:
    a window as ``_window_costs`` takes it, the way the executors built it
    before jobs were costed through the memo (``_JobCosts.window``)."""
    paths = [request.path for request in requests]
    by_id = {id(path): path for path in paths}
    return [
        (by_id[key].path_id, by_id[key].blocks, n)
        for key, n in Counter(map(id, paths)).items()
    ]


def per_request_window_costs(requests, blocks_for=None):
    """``_window_costs`` by the old rule: one trie walk per request.

    A prefix tuple per request × block, a set of path ids per node.
    ``blocks_for`` overrides the block sequence per request (the cluster
    passes per-node segments).  The one change from the code this
    replaced: the unmerged tally is keyed by (path id, block sequence),
    not by path id alone (see ``test_shared_path_split_differently``).
    """
    if blocks_for is None:
        blocks_for = lambda request: request.path.blocks  # noqa: E731

    def batch_cost(block, n: int) -> float:
        return block.compute_time_s * (1.0 + (n - 1) * block.batch_marginal)

    trie: dict[tuple[str, ...], list] = {}
    by_path: dict[tuple, tuple[tuple, int]] = {}
    for request in requests:
        blocks = blocks_for(request)
        prefix: tuple[str, ...] = ()
        for block in blocks:
            prefix = prefix + (block.block_id,)
            node = trie.setdefault(prefix, [block, 0, set()])
            node[1] += 1
            node[2].add(request.path.path_id)
        key = (request.path.path_id, prefix)
        known = by_path.get(key)
        by_path[key] = (blocks, (known[1] if known else 0) + 1)

    merged = sum(batch_cost(block, n) for block, n, _paths in trie.values())
    unmerged = sum(
        batch_cost(block, n)
        for blocks, n in by_path.values()
        for block in blocks
    )
    merges = sum(1 for _block, _n, paths in trie.values() if len(paths) > 1)
    return merged, unmerged, merges


def per_request_cluster_dispatch(self, requests, now: float):
    """``ClusterExecutor.dispatch`` by the old rule (patch it in as a method).

    Routes through ``plan.segments()`` per task, each hop-0 node's window
    cut into jobs by ``cut_window`` (as the product cuts it; the oracle
    keeps one job-cost memo per node on the executor, ``_oracle_memos``,
    reading a request as its task's hop-0 unit) and split per (task,
    job), a job left whole by the one-worker / one-request rule costed by
    the per-request trie, later-hop cost re-summed per sub-batch, and
    each sub-batch written to the hop table as the walk goes (hop-0 rows
    kept per sub-batch until then; a traced run fills each batch's
    ``hops`` once it is written, as the executor does).  Failure and
    stall draws come from the executor's own ``_rng``, in the same order.
    """
    plan = self.deployment.plan
    groups: dict[int, list[ServingRequest]] = {}
    for request in requests:
        groups.setdefault(request.task_id, []).append(request)

    resolved: dict[int, tuple] = {}
    window_start = None
    window_end = now
    compute = 0.0
    unshared = 0.0
    merges = 0
    for task_id in sorted(groups):
        segments = plan.segments(task_id)
        node, delay = self._resolve_node(segments[0])
        if node is None:
            drop_at = now + delay
            self._drop_batch(groups[task_id], DropReason.REMOTE_ERROR, drop_at)
            window_end = max(window_end, drop_at)
            continue
        resolved[task_id] = (node, delay, segments)

    by_node: dict[str, list[int]] = {}
    for task_id, (node, _delay, _segments) in resolved.items():
        by_node.setdefault(node.node_id, []).append(task_id)

    memos = self.__dict__.setdefault("_oracle_memos", {})
    units = self.__dict__.setdefault("_oracle_units", {})  # task id -> hop-0 unit
    for task_id in resolved:
        if task_id not in units:
            head = resolved[task_id][2][0]
            path = groups[task_id][0].path
            units[task_id] = (
                path if len(resolved[task_id][2]) == 1
                else replace(path, blocks=head.blocks)
            )
    # (task id, job order) -> (hop-0 node id, start, finish, members)
    sub_batches: dict[tuple[int, int], tuple] = {}
    for node_id in sorted(by_node):
        node = self.deployment.registry.node(node_id)
        batch = [r for tid in by_node[node_id] for r in groups[tid]]
        segment_of = {tid: resolved[tid][2][0] for tid in by_node[node_id]}
        ready = now + max(resolved[tid][1] for tid in by_node[node_id])
        memo = memos.get(node_id)
        if memo is None:
            memo = memos[node_id] = _JobCosts(
                self.prefix_cache, node.spec.cpu_scale, lambda r: units[r.task_id]
            )
        jobs = cut_window(node.pool, memo, batch, ready, self.result_return_s)
        whole = node.spec.num_workers < 2 or len(batch) < 2
        for order, job in enumerate(jobs):
            if whole:
                merged, unmerged, job_merges = per_request_window_costs(
                    job.members, lambda r: segment_of[r.task_id].blocks
                )
                unmerged = unmerged / node.spec.cpu_scale
                cost = merged / node.spec.cpu_scale if self.prefix_cache else unmerged
            else:
                costs = job.costs
                cost, unmerged, job_merges = costs.cost, costs.unshared, costs.merges
            _worker, start, finish = node.execute(cost, ready, job.worker)
            share = cost / len(job.members)
            for request in job.members:
                request.started_at = start
                request.compute_time_s = share
            compute += cost
            unshared += unmerged
            merges += job_merges
            window_start = start if window_start is None else min(window_start, start)
            for request in job.members:
                key = (request.task_id, order)
                if key not in sub_batches:
                    sub_batches[key] = (node_id, start, finish, [])
                sub_batches[key][3].append(request)

    table = self.qos.hops
    for task_id, order in sorted(sub_batches):
        node_id, start, at, batch = sub_batches[task_id, order]
        segments = resolved[task_id][2]
        prev_node_id = node_id
        dropped = False
        table.open(batch)
        table.rows += [
            ("queue", node_id, now, start, 0),
            ("exec", node_id, start, at, 0),
        ]
        for seg_index, segment in enumerate(segments[1:], start=1):
            payload_bits = segments[seg_index - 1].egress_bits * len(batch)
            delivery = self._transfer(
                prev_node_id, segment.node_id, payload_bits, at
            )
            if delivery is None:
                drop_at = at + 2 * self.deployment.transfer_timeout_s
                self._drop_batch(batch, DropReason.TRANSFER_TIMEOUT, drop_at)
                window_end = max(window_end, drop_at)
                dropped = True
                break
            exec_node, delay = self._resolve_node(segment)
            if exec_node is None:
                drop_at = delivery + delay
                self._drop_batch(batch, DropReason.REMOTE_ERROR, drop_at)
                window_end = max(window_end, drop_at)
                dropped = True
                break
            cost = exec_node.scaled_cost(
                sum(
                    b.compute_time_s * (1.0 + (len(batch) - 1) * b.batch_marginal)
                    for b in segment.blocks
                )
            )
            _worker, start, finish = exec_node.execute(cost, delivery + delay)
            compute += cost
            unshared += cost
            share = cost / len(batch)
            for request in batch:
                request.compute_time_s += share
            if start > delivery + delay:
                table.rows.append(
                    ("queue", exec_node.node_id, delivery + delay, start, 0)
                )
            table.rows.append(("exec", exec_node.node_id, start, finish, 0))
            prev_node_id = exec_node.node_id
            at = finish
        if not dropped:
            for request in batch:
                request.service_done_at = at
                request.completed_at = at + self.result_return_s
            window_end = max(window_end, at)
        if self.tracer.enabled:
            self.fill_hops()

    if window_start is None:
        window_start = now
    report = self._log_window(
        len(requests), compute, unshared, merges, window_start, window_end
    )
    if self.tracer.enabled:
        self._window_span(
            "cluster", window_start, window_end - window_start, len(requests),
            report.prefix_merges, report.saved_s,
        )
    return report


def full_walk_within(tracker, duration_s: float) -> float:
    """``BusyTracker.within`` by walking every period (patch it in as a
    method): what each 50 ms utilization sample of a traced cluster run
    used to cost, O(periods so far)."""
    # added one by one, not with ``sum``, which compensates float
    # additions from Python 3.12 on; the tracker's running sums do not
    busy = 0.0
    for start, finish in tracker.periods:
        busy += max(0.0, min(finish, duration_s) - min(start, duration_s))
    return busy


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


def with_batch_marginal(problem, batch_marginal: float):
    """``problem`` with every block's batch law set to ``batch_marginal``.

    Tasks that share a path tuple (replicas) still share the rebuilt one,
    and a block shared by several paths stays one block.
    """
    blocks: dict[str, object] = {}

    def relawed(block):
        return blocks.setdefault(
            block.block_id, replace(block, batch_marginal=batch_marginal)
        )

    rebuilt: dict[int, tuple] = {}
    catalog = Catalog()
    for task_id, paths in problem.catalog.paths_by_task.items():
        if id(paths) not in rebuilt:
            rebuilt[id(paths)] = tuple(
                replace(path, blocks=tuple(relawed(b) for b in path.blocks))
                for path in paths
            )
        catalog.paths_by_task[task_id] = rebuilt[id(paths)]
    return replace(problem, catalog=catalog)


def tuple_signature_groups(problem) -> list[tuple[int, tuple[int, ...]]]:
    """``(representative id, member ids)`` per group, in group order.

    One 7-tuple per task, hashed into a dict in priority order: the first
    member of a bucket (smallest id) represents it and members ascend.
    """
    buckets: dict[tuple, list[int]] = {}
    for task in problem.tasks_by_priority():
        signature = (
            id(problem.catalog.paths_for(task)),
            task.priority,
            task.request_rate,
            task.min_accuracy,
            task.max_latency_s,
            task.qualities,
            problem.radio.bits_per_rb(task),
        )
        buckets.setdefault(signature, []).append(task.task_id)
    return [(members[0], tuple(members)) for members in buckets.values()]


def per_member_allocate_groups(self, problem, plan, cliques, chosen) -> DOTSolution:
    """``AggregateSolver._allocate_groups`` with one dict entry per member
    (patch it over the method to get a solve's expanded twin): the group
    replay written out, a placed group's rejected members on its path."""
    budgets = problem.budgets
    remaining_radio = float(budgets.radio_blocks)
    remaining_compute = float(budgets.compute_time_s)
    tasks_by_id = {t.task_id: t for t in problem.tasks}
    solution = DOTSolution()

    def assign(member_ids, path, z, r) -> None:
        for member_id in member_ids:
            solution.assignments[member_id] = Assignment(
                task=tasks_by_id[member_id], path=path, admission_ratio=z, radio_blocks=r
            )

    for clique, pick in zip(cliques, chosen):
        members = plan.groups[clique.task.task_id].member_ids
        if pick < 0:
            assign(members, None, 0.0, 0)
            continue
        item = BranchItem(
            clique.task, clique.variant_path(pick), clique.bits_per_rb,
            clique.min_latency_rbs(pick),
        )
        index = 0
        while index < len(members):
            z, r = _best_admission_for_item(
                item, remaining_radio, remaining_compute, budgets.radio_blocks
            )
            if z < ADMISSION_FLOOR:
                break
            radio_demand = r
            compute_demand = z * item.task.request_rate * item.path.compute_time_s
            run = len(members) - index
            if radio_demand > 0:
                run = min(run, math.floor(remaining_radio / radio_demand + 1e-9))
            if compute_demand > 0:
                run = min(run, math.floor(remaining_compute / compute_demand + 1e-9))
            run = max(1, run)
            assign(members[index : index + run], item.path, z, r)
            remaining_radio = max(0.0, remaining_radio - run * radio_demand)
            remaining_compute = max(0.0, remaining_compute - run * compute_demand)
            index += run
        assign(members[index:], item.path, 0.0, 0)
    return solution


def allocate_both_ways(solver, problem):
    """``(plan, {representative id: pick}, run-backed solution, per-member
    twin)`` of one selection.  Both allocations read each pick's variant
    path from one memo, so the two solutions must hold the very same
    ``Path`` objects."""
    from repro.core.aggregate import aggregate_problem

    plan = aggregate_problem(problem)
    vtree = build_vector_tree(plan.meta_problem)
    cliques, chosen = vtree.cliques, first_branch(vtree, problem.budgets)
    built: dict = {}
    variant_path = VectorClique.variant_path

    def shared_variant_path(clique, index):
        key = (id(clique), index)
        if key not in built:
            built[key] = variant_path(clique, index)
        return built[key]

    with patch.object(VectorClique, "variant_path", shared_variant_path):
        runs = solver._allocate_groups(problem, plan, cliques, chosen)
        twin = per_member_allocate_groups(solver, problem, plan, cliques, chosen)
    picks = {clique.task.task_id: pick for clique, pick in zip(cliques, chosen)}
    return plan, picks, runs, twin


def minimum_latency_rbs(
    bits_per_image: float,
    bits_per_rb: float,
    max_latency_s: float,
    compute_time_s: float,
) -> int:
    """``r_min`` by the scalar expression the solver used per item before
    ``repro.core.latency.min_latency_rbs`` (10**9 when compute alone
    misses the limit)."""
    slack = max_latency_s - compute_time_s
    if slack <= 0:
        return 10**9
    return max(1, math.ceil(bits_per_image / (bits_per_rb * slack) - 1e-12))


def scalar_cliques(problem) -> list[tuple[object, list[BranchItem], int]]:
    """``(task, vertices, filtered out)`` per layer, one vertex object at a time.

    The per-vertex tree build the batched ``build_cliques`` replaced: every
    (path × quality) variant of a task, the three feasibility filters, the
    clique sort key.
    """
    radio_blocks = problem.budgets.radio_blocks
    cliques = []
    for task in problem.tasks_by_priority():
        bits_per_rb = problem.radio.bits_per_rb(task)
        variants = [
            path
            if quality == path.quality
            else replace(path, path_id=f"{path.path_id}@{quality.name}", quality=quality)
            for path in problem.catalog.paths_for(task)
            for quality in task.qualities
        ]
        vertices = [
            vertex
            for vertex in (
                BranchItem(
                    task, path, bits_per_rb,
                    minimum_latency_rbs(
                        path.bits_per_image, bits_per_rb,
                        task.max_latency_s, path.compute_time_s,
                    ),
                )
                for path in variants
            )
            # (1f) accuracy; (1g) compute must leave room for transmission;
            # the latency-driven RB demand must fit the radio capacity at all
            if vertex.path.effective_accuracy >= task.min_accuracy - 1e-12
            and vertex.compute_time_s < task.max_latency_s
            and vertex.min_latency_rbs <= radio_blocks
        ]
        vertices.sort(
            key=lambda v: (
                v.path.compute_time_s, v.path.memory_gb, v.path.bits_per_image, v.path.path_id
            )
        )
        cliques.append((task, vertices, len(variants) - len(vertices)))
    return cliques


def scalar_first_branch(problem, ordering: str = "compute"):
    """Leftmost memory-fitting vertex per layer of :func:`scalar_cliques`:
    ``(task id, vertex or None)`` pairs, what ``first_branch`` must return."""
    used: set[str] = set()
    memory = 0.0

    def extra(vertex) -> float:
        return sum(b.memory_gb for b in vertex.path.blocks if b.block_id not in used)

    chosen = []
    for task, vertices, _ in scalar_cliques(problem):
        if ordering == "memory":
            vertices = sorted(vertices, key=lambda v: (extra(v), v.path.path_id))
        elif ordering == "accuracy":
            vertices = sorted(
                vertices, key=lambda v: (-v.path.effective_accuracy, v.path.path_id)
            )
        fits = (v for v in vertices if memory + extra(v) <= problem.budgets.memory_gb + 1e-12)
        picked = next(fits, None)
        for block in picked.path.blocks if picked else ():
            if block.block_id not in used:
                used.add(block.block_id)
                memory += block.memory_gb
        chosen.append((task.task_id, picked))
    return chosen


def clique_items(clique, radio_blocks: int) -> list[BranchItem]:
    """A clique's radio-feasible variants as decisions, in clique order
    (the ``VectorClique.items`` the pick column replaced)."""
    return [
        BranchItem(
            clique.task, clique.variant_path(i), clique.bits_per_rb,
            clique.min_latency_rbs(i),
        )
        for i in clique.feasible(radio_blocks)
    ]


# ---------------------------------------------------------------------------
# The item-per-layer solver: every walk returned ``(task id, BranchItem or
# None)`` per layer and ``allocate`` read those.  The pick-column solver in
# ``src/`` (one variant index per layer, items built only as the water-fill
# reads them) must return the same solutions, assignment order included.
# ---------------------------------------------------------------------------


def item_first_branch(vtree, budgets, ordering: str = "compute"):
    """``first_branch`` as it was: ``(task id, BranchItem or None)`` per layer."""
    radio_blocks = budgets.radio_blocks
    memory_limit = budgets.memory_gb + 1e-12
    deployed: set[str] = set()
    settled: set[int] = set()
    mem_used = 0.0

    def fresh_blocks(path):
        return [b for b in path.blocks if b.block_id not in deployed]

    def deploys(clique, i: int) -> bool:
        nonlocal mem_used
        path = clique.base_path(i)
        if id(path) in settled:
            return not mem_used + 0 > memory_limit
        fresh = fresh_blocks(path)
        if mem_used + sum(b.memory_gb for b in fresh) > memory_limit:
            return False
        for block in fresh:
            if block.block_id not in deployed:
                deployed.add(block.block_id)
                mem_used += block.memory_gb
        settled.add(id(path))
        return True

    if ordering == "compute":
        heads = _clique_heads(vtree.cliques, radio_blocks)
    else:
        heads = [None] * len(vtree.cliques)
    chosen = []
    for clique, head in zip(vtree.cliques, heads):
        if head is None:
            candidates = clique.feasible(radio_blocks)
            if ordering == "memory":
                candidates.sort(
                    key=lambda i: (
                        sum(b.memory_gb for b in fresh_blocks(clique.base_path(i))),
                        clique.variant_path_id(i),
                    )
                )
            elif ordering == "accuracy":
                candidates.sort(
                    key=lambda i: (
                        -clique.columns.accuracy[clique.lo + i],
                        clique.variant_path_id(i),
                    )
                )
            pick = next((i for i in candidates if deploys(clique, i)), -1)
        elif head < 0 or deploys(clique, head):
            pick = head
        else:
            rest = clique.feasible(radio_blocks)[1:]
            pick = next((i for i in rest if deploys(clique, i)), -1)
        item = None
        if pick >= 0:
            item = BranchItem(
            clique.task, clique.variant_path(pick), clique.bits_per_rb,
            clique.min_latency_rbs(pick),
        )
        chosen.append((clique.task.task_id, item))
    return chosen


def item_branches(vtree, budgets, allow_reject: bool = False):
    """``branches`` as it was: every leaf a list of ``(task id, item or None)``."""
    layers = [
        (clique.task.task_id, clique_items(clique, budgets.radio_blocks))
        for clique in vtree.cliques
    ]
    prefix = []

    def descend(layer, state):
        if layer == len(layers):
            yield list(prefix)
            return
        task_id, items = layers[layer]
        descended = False
        for item in items:
            if not state.fits(item.path, budgets.memory_gb):
                continue
            descended = True
            prefix.append((task_id, item))
            yield from descend(layer + 1, state.extend(item.path))
            prefix.pop()
        if allow_reject or not descended:
            prefix.append((task_id, None))
            yield from descend(layer + 1, state)
            prefix.pop()

    return descend(0, BranchState())


def item_allocate(problem, chosen, slice_margin_rbs: int = 0):
    """``allocate`` as it was: the water-fill over a list of every placed
    layer's item, then placed assignments, then rejected ones."""
    placed = [(task_id, item) for task_id, item in chosen if item is not None]
    allocation = solve_branch([item for _, item in placed], problem.budgets)
    if slice_margin_rbs > 0:
        _apply_margin(float(problem.budgets.radio_blocks), allocation, slice_margin_rbs)
    solution = DOTSolution()
    for (task_id, item), z, r in zip(placed, allocation.admission, allocation.radio_blocks):
        solution.assignments[task_id] = Assignment(
            task=item.task, path=item.path, admission_ratio=z, radio_blocks=r
        )
    for task_id, item in chosen:
        if item is None:
            solution.assignments[task_id] = Assignment(
                task=problem.task(task_id), path=None, admission_ratio=0.0, radio_blocks=0
            )
    return solution


def item_best_branch(problem, leaves):
    """``best_branch`` as it was, over item leaves."""
    best, best_cost, explored = None, float("inf"), 0
    for chosen in leaves:
        explored += 1
        candidate = item_allocate(problem, chosen)
        cost = objective_value(problem, candidate)
        if cost < best_cost - 1e-12:
            best, best_cost = candidate, cost
    best.branches_explored = explored
    return best


def item_solve(problem, ordering="compute", margin=0, memo=None):
    """``OffloaDNNSolver(...).solve(problem, memo)`` by the item walk."""
    vtree = build_vector_tree(problem, memo)
    chosen = item_first_branch(vtree, problem.budgets, ordering)
    return item_allocate(problem, chosen, margin)


def item_optimal_solve(problem, allow_reject=False):
    """``OptimalSolver().solve`` by item leaves; ``allow_reject`` also
    explores an explicit "serve no path" vertex per layer, which the
    paper's tree (and the solver) do not have."""
    vtree = build_vector_tree(problem)
    leaves = item_branches(vtree, problem.budgets, allow_reject=allow_reject)
    return item_best_branch(problem, leaves)


def item_allocate_groups(self, problem, plan, chosen) -> DOTSolution:
    """``AggregateSolver._allocate_groups`` as it was, over an item branch."""
    budgets = problem.budgets
    remaining_radio = float(budgets.radio_blocks)
    remaining_compute = float(budgets.compute_time_s)
    runs = []
    for rep_id, item in chosen:
        group = plan.groups[rep_id]
        members, rep = group.member_ids, group.representative
        if item is None:
            runs.append((Assignment(rep, None, 0.0, 0), members))
            continue
        index = 0
        while index < len(members):
            if _radio_spent(remaining_radio):
                z, r = 0.0, 0
            else:
                z, r = _best_admission_for_item(
                    item, remaining_radio, remaining_compute, budgets.radio_blocks
                )
            if z < ADMISSION_FLOOR:
                break
            radio_demand = r
            compute_demand = z * item.task.request_rate * item.path.compute_time_s
            run = len(members) - index
            if radio_demand > 0:
                run = min(run, math.floor(remaining_radio / radio_demand + 1e-9))
            if compute_demand > 0:
                run = min(run, math.floor(remaining_compute / compute_demand + 1e-9))
            run = max(1, run)
            runs.append((Assignment(rep, item.path, z, r), members[index : index + run]))
            remaining_radio = max(0.0, remaining_radio - run * radio_demand)
            remaining_compute = max(0.0, remaining_compute - run * compute_demand)
            index += run
        if index < len(members):
            runs.append((Assignment(rep, item.path, 0.0, 0), members[index:]))
    return DOTSolution(assignments=AssignmentRuns(runs, problem.task))


def item_aggregate_solve(solver, problem) -> DOTSolution:
    """``solver.solve(problem)`` (an ``AggregateSolver``) by the item walk."""
    from repro.core.aggregate import aggregate_problem

    plan = aggregate_problem(problem)
    chosen = item_first_branch(build_vector_tree(plan.meta_problem), problem.budgets)
    return item_allocate_groups(solver, problem, plan, chosen)


def item_greedy_solve(problem) -> DOTSolution:
    """``GreedyNoSharingSolver().solve`` over item lists, dedicated blocks included."""
    vtree = build_vector_tree(problem)
    remaining_memory = problem.budgets.memory_gb
    chosen = []
    for clique in vtree.cliques:
        picked = None
        for item in clique_items(clique, problem.budgets.radio_blocks):
            memory = item.path.memory_gb
            if memory <= remaining_memory + 1e-12:
                picked = item
                remaining_memory -= memory
                break
        chosen.append((clique.task.task_id, picked))
    solution = item_allocate(problem, chosen)
    for task_id, assignment in list(solution.assignments.items()):
        path = assignment.path
        if path is None:
            continue
        blocks = tuple(
            replace(
                b,
                block_id=f"dedicated:task{task_id}:{b.block_id}",
                dnn_id=f"dedicated:task{task_id}:{b.dnn_id}",
            )
            for b in path.blocks
        )
        solution.assignments[task_id] = replace(assignment, path=replace(path, blocks=blocks))
    return solution


def item_random_solve(problem, seed=0) -> DOTSolution:
    """``RandomPathSolver(seed).solve`` over item lists."""
    vtree = build_vector_tree(problem)
    rng = np.random.default_rng(seed)
    budgets = problem.budgets
    state = BranchState()
    chosen = []
    for clique in vtree.cliques:
        fitting = [
            item
            for item in clique_items(clique, budgets.radio_blocks)
            if state.fits(item.path, budgets.memory_gb)
        ]
        picked = None
        if fitting:
            picked = fitting[rng.integers(len(fitting))]
            state = state.extend(picked.path)
        chosen.append((clique.task.task_id, picked))
    return item_allocate(problem, chosen)


def per_item_solve_branch(items, budgets) -> BranchAllocation:
    """The water-fill with one closed-form scan per item, also after the
    radio pool is spent: ``solve_branch`` must return exactly this."""
    remaining_radio = float(budgets.radio_blocks)
    remaining_compute = float(budgets.compute_time_s)
    admission: list[float] = []
    rbs: list[int] = []
    for item in items:
        z, r = _best_admission_for_item(
            item, remaining_radio, remaining_compute, budgets.radio_blocks
        )
        if z < ADMISSION_FLOOR:
            admission.append(0.0)
            rbs.append(0)
            continue
        admission.append(z)
        rbs.append(r)
        remaining_radio -= r
        remaining_compute -= z * item.task.request_rate * item.compute_time_s
    return BranchAllocation(admission=admission, radio_blocks=rbs, members=[1] * len(rbs))


def solve_branch_convex(
    items: list[BranchItem],
    budgets: Budgets,
    alpha: float,
    training_cost_s: float = 0.0,
) -> BranchAllocation:
    """scipy SLSQP on the relaxed continuous branch program.

    Minimizes the Eq. (1a) objective restricted to the branch (paths
    given, so the training term is a constant) over ``z ∈ [0, 1]`` and
    continuous ``r``, subject to (1c)-(1e) and (1g), with the paper's
    smooth (1d) Σ z·r ≤ R; the returned ``r`` is rounded up to integers,
    each slice clipped to what the slice grid (Σ r ≤ R) has left, and
    ``z`` re-clipped to feasibility.

    Because Eq. (1a) rewards rejecting low-priority tasks whose resource
    cost exceeds ``α·p``, it admits less than ``solve_branch``, which
    fills the branch lexicographically by priority; it is the strict
    (1a) minimizer that reading of the paper is pinned against, and a
    cross-check of the structured solver's feasibility.
    """
    n = len(items)
    if n == 0:
        return BranchAllocation(admission=[], radio_blocks=[], members=[])
    if budgets.radio_blocks <= 0 or budgets.compute_time_s <= 0:
        # zero-headroom instance (e.g. an exhausted online platform):
        # nothing can be admitted, and the normalized objective below
        # would divide by the zero budget
        return BranchAllocation(admission=[0.0] * n, radio_blocks=[0] * n, members=[1] * n)

    lam = np.array([it.task.request_rate for it in items])
    prio = np.array([it.task.priority for it in items])
    comp = np.array([it.compute_time_s for it in items])
    beta = np.array([it.path.bits_per_image for it in items])
    bpr = np.array([it.bits_per_rb for it in items])
    r_lat = np.array([it.min_latency_rbs for it in items], dtype=float)
    r_cap = float(budgets.radio_blocks)

    infeasible = r_lat > r_cap

    def objective(xs: np.ndarray) -> float:
        z, r = xs[:n], xs[n:]
        rejection = float(((1.0 - z) * prio).sum())
        radio = float((z * lam * r).sum()) / budgets.radio_blocks
        inference = float((z * lam * comp).sum()) / budgets.compute_time_s
        training = training_cost_s / budgets.training_budget_s
        return alpha * rejection + (1 - alpha) * (training + radio + inference)

    constraints = [
        {  # (1d)
            "type": "ineq",
            "fun": lambda xs: budgets.radio_blocks - float((xs[:n] * xs[n:]).sum()),
        },
        {  # (1c)
            "type": "ineq",
            "fun": lambda xs: budgets.compute_time_s - float((xs[:n] * lam * comp).sum()),
        },
        {  # (1e) per task
            "type": "ineq",
            "fun": lambda xs: bpr * xs[n:] - xs[:n] * lam * beta,
        },
    ]
    bounds = [(0.0, 1.0)] * n + [
        (float(r_lat[i]) if not infeasible[i] else 0.0, r_cap) for i in range(n)
    ]
    x0 = np.concatenate([np.full(n, 0.5), np.maximum(r_lat, 1.0)])
    x0[n:] = np.minimum(x0[n:], r_cap)
    result = minimize(
        objective,
        x0,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": 300, "ftol": 1e-9},
    )
    z = np.clip(result.x[:n], 0.0, 1.0)
    r = np.ceil(result.x[n:] - 1e-9).astype(int)
    # re-clip to integer feasibility
    admission: list[float] = []
    rbs: list[int] = []
    remaining_radio = float(budgets.radio_blocks)
    remaining_compute = float(budgets.compute_time_s)
    for i, item in enumerate(items):
        if infeasible[i] or z[i] <= 1e-6:
            admission.append(0.0)
            rbs.append(0)
            continue
        # a slice holds all its RBs: it is clipped to what the grid has left
        ri = min(max(int(r[i]), item.min_latency_rbs), int(remaining_radio))
        if ri < item.min_latency_rbs:
            admission.append(0.0)
            rbs.append(0)
            continue
        rate_bits = lam[i] * beta[i]
        zi = min(
            z[i],
            # a zero-bits quality level (beta == 0) puts no load on the
            # slice, so the rate constraint (1e) never binds
            ri * item.bits_per_rb / rate_bits if rate_bits > 0 else 1.0,
            remaining_compute / (lam[i] * comp[i]) if comp[i] > 0 else 1.0,
        )
        zi = float(np.clip(zi, 0.0, 1.0))
        if zi <= 1e-6:
            admission.append(0.0)
            rbs.append(0)
            continue
        admission.append(zi)
        rbs.append(ri)
        remaining_radio -= ri
        remaining_compute -= zi * lam[i] * comp[i]
    return BranchAllocation(admission=admission, radio_blocks=rbs, members=[1] * n)


def admission_by_enumeration(
    item: BranchItem, remaining_radio: float, remaining_compute: float, max_rbs: int
) -> tuple[float, int]:
    """The original O(R) enumeration behind ``_best_admission_for_item``,
    which must return exactly this ``(z, r)`` for any item and pool state."""
    r_latency = item.min_latency_rbs
    rate_bits = item.task.request_rate * item.path.bits_per_image
    # on the slice grid a slice holds all its RBs: r fits the pool whole
    r_upper = min(
        max_rbs,
        int(remaining_radio),
        max(r_latency, full_rate_rbs(rate_bits, item.bits_per_rb)),
    )
    if r_latency > r_upper:
        return 0.0, 0
    compute_per_unit_z = item.task.request_rate * item.compute_time_s
    z_compute = (
        1.0
        if compute_per_unit_z <= 0
        else min(1.0, remaining_compute / compute_per_unit_z)
    )
    if z_compute <= 0:
        return 0.0, 0

    best_z, best_r = 0.0, 0
    for r in range(r_latency, r_upper + 1):
        z_rate = min(1.0, r * item.bits_per_rb / rate_bits) if rate_bits > 0 else 1.0
        z = min(z_rate, z_compute)
        if z > best_z + _SCAN_EPS:
            best_z, best_r = z, r
    if best_z <= 1e-9:
        return 0.0, 0
    return best_z, best_r


def bfs_pruning_groups(model, prunable: set[str]) -> list[tuple[str, int, list]]:
    """``collect_groups(*build_dependency_graph(model, prunable))`` as
    ``(name, size, members)``, with components found by breadth-first
    search over the graph's edges instead of the product's union-find.

    The ties ``build_dependency_graph`` makes are recorded as an edge
    list; every slot not yet reached starts a search, in creation order.
    A component's members are in slot-creation order, components are
    ordered by their smallest label and numbered before frozen ones are
    skipped, as ``sorted(networkx.connected_components(g), key=min)``
    numbered them.
    """
    edges: list[tuple[str, str]] = []
    tie = pruning._GraphBuilder.tie

    def recording_tie(builder, a: str, b: str) -> None:
        edges.append((a, b))
        tie(builder, a, b)

    with patch.object(pruning._GraphBuilder, "tie", recording_tie):
        graph, slot_members = pruning.build_dependency_graph(model, prunable)
    adjacency: dict[str, list[str]] = {label: [] for label in slot_members}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    created = {label: i for i, label in enumerate(slot_members)}
    seen: set[str] = set()
    components = []
    for start in slot_members:
        if start in seen:
            continue
        seen.add(start)
        queue, component = deque([start]), []
        while queue:
            label = queue.popleft()
            component.append(label)
            for other in adjacency[label]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        components.append(sorted(component, key=created.__getitem__))

    def channels(layer, role: str) -> int:
        if isinstance(layer, Conv2d):
            return layer.out_channels if role == "out" else layer.in_channels
        if isinstance(layer, BatchNorm2d):
            return layer.channels
        return layer.in_features

    groups = []
    for index, component in enumerate(sorted(components, key=min)):
        if any(label in graph.frozen for label in component):
            continue
        members = [m for label in component for m in slot_members[label]]
        (size,) = {channels(*member) for member in members}
        groups.append((f"group{index}", size, members))
    return groups


def fresh_forward(plan: CompiledModule, x: np.ndarray) -> np.ndarray:
    """``plan.forward(x)`` on memory nothing else touches.

    The steady-state forward packs a plan's step outputs and pad buffers
    by lifetime into one thread-local arena that every plan and batch
    size shares, rebinding its views as the arena grows.  This gives
    every step output and every pad an array of its own, freshly zeroed,
    with no packing and no arena, and runs the same steps once.  A stale
    view, two live buffers laid over each other or a pad border another
    buffer or plan dirtied shows up as a difference between the two.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    n = x.shape[0]
    steps = list(_iter_steps(plan.steps))
    needs = [step.bind(n) for step in steps]
    binding = _Binding(
        *(
            np.zeros(max((need[i] for need in needs), default=0), np.float32)
            for i in (0, 1)
        )
    )
    for step, (_, _, token) in zip(steps, needs):
        interior = pad = out = None
        if step.out_dtype is not None:
            out = np.zeros(
                _batch_shape(step.out_shape, n, step.out_dtype), step.out_dtype
            )
        if step.padding:
            pad = np.zeros(_pad_shape(step, n), step.in_dtype)
            interior = _interior(pad, step)
        binding.bufs[step] = (interior, pad, out, token)
    for step in plan.steps:
        x = step.run(x, binding)
    return x.copy()



# ---------------------------------------------------------------------------
# The eager forward: every layer runs on its own, unfused, into a fresh
# array (convolution by im2col + einsum, BN as its own pass, no buffer
# reuse).  ``compile_module`` is the only executor in ``src/``; its plans
# fold, fuse and lay out exactly this arithmetic, so they must match it to
# float32 tolerance.
# ---------------------------------------------------------------------------


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into ``(N, C * kernel**2, out_h * out_w)``
    columns; returns ``(cols, out_h, out_w)``."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kernel, kernel, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    cols = windows.reshape(n, c * kernel * kernel, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """``x`` (N, C_in, H, W) convolved with ``weight`` (C_out, C_in, K, K)."""
    n = x.shape[0]
    c_out, c_in, k, _ = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, weight expects {c_in}"
        )
    cols, out_h, out_w = im2col(x, k, stride, padding)
    out = np.einsum("oc,ncp->nop", weight.reshape(c_out, c_in * k * k), cols, optimize=True)
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(n, c_out, out_h, out_w)


def depthwise_conv2d(
    x: np.ndarray, weight: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """One (K, K) filter of ``weight`` (C, K, K) per channel of ``x``."""
    n, c, h, w = x.shape
    if weight.shape[0] != c:
        raise ValueError(
            f"channel mismatch: input has {c}, depthwise weight expects {weight.shape[0]}"
        )
    k = weight.shape[1]
    out_h = conv_output_size(h, k, stride, padding)
    out_w = conv_output_size(w, k, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k, k, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return np.einsum("nckhij,ckh->ncij", windows, weight, optimize=True)


def batch_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = BN_EPS,
) -> np.ndarray:
    """Inference-mode batch normalization over the channel axis."""
    scale = gamma / np.sqrt(running_var + eps)
    shift = beta - running_mean * scale
    return x * scale[None, :, None, None] + shift[None, :, None, None]


def max_pool2d(x: np.ndarray, kernel: int, stride: int, padding: int = 0) -> np.ndarray:
    """Max pooling over square windows, zero padding."""
    cols, out_h, out_w = im2col(x, kernel, stride, padding)
    n, c = x.shape[0], x.shape[1]
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    return cols.max(axis=2).reshape(n, c, out_h, out_w)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """``x`` (N, F) times ``weight`` (O, F) transposed, plus ``bias``."""
    out = x @ weight.T
    return out if bias is None else out + bias


def eager_forward(layer, x: np.ndarray) -> np.ndarray:
    """Run ``layer`` (a layer, a module tree or a ``BlockwiseModel``) on
    ``x`` one layer at a time."""
    if isinstance(layer, BlockwiseModel):
        layer = layer._as_sequential
    if isinstance(layer, Sequential):
        for child in layer.layers:
            x = eager_forward(child, x)
        return x
    if isinstance(layer, Residual):
        identity = x if layer.shortcut is None else eager_forward(layer.shortcut, x)
        out = eager_forward(layer.body, x)
        if out.shape != identity.shape:
            raise ValueError(
                f"residual shape mismatch: body {out.shape} vs shortcut {identity.shape}"
            )
        total = out + identity
        return np.maximum(total, 0.0) if layer.activation == "relu" else total
    if isinstance(layer, Conv2d):
        return conv2d(x, layer.weight, layer.bias, layer.stride, layer.padding)
    if isinstance(layer, DepthwiseConv2d):
        return depthwise_conv2d(x, layer.weight, layer.stride, layer.padding)
    if isinstance(layer, BatchNorm2d):
        return batch_norm(
            x, layer.gamma, layer.beta, layer.running_mean, layer.running_var
        )
    if isinstance(layer, ReLU):
        return np.maximum(x, 0.0)
    if isinstance(layer, ReLU6):
        return np.clip(x, 0.0, 6.0)
    if isinstance(layer, MaxPool2d):
        return max_pool2d(x, layer.kernel, layer.stride, layer.padding)
    if isinstance(layer, GlobalAvgPool):
        return x.mean(axis=(2, 3))
    if isinstance(layer, Flatten):
        # by the per-sample size: numpy cannot infer -1 for an empty batch
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))
    if isinstance(layer, Linear):
        return linear(x, layer.weight, layer.bias)
    raise TypeError(f"no eager forward for {type(layer).__name__}")

_FRAME_MAGIC = b"RC"
_FRAME_VERSION = 2
_FLAG_FP16 = 0x01
_FLAG_INT8 = 0x02
#: magic + version + flags + dtype[8] + ndim
_FRAME_PREFIX = struct.Struct("<2sBB8sB")


def encode_frame(
    array: np.ndarray, downcast_fp16: bool = False, quantize_int8: bool = False
) -> bytes:
    """One activation tensor as a self-delimiting frame.

    Layout (little-endian): the 13-byte prefix (magic ``b"RC"``,
    version, flags, the logical dtype's ``str`` NUL-padded to 8 bytes,
    ndim), one u32 per dimension, an f32 scale when the int8 flag is
    set, the u64 payload length, then the C-order payload.  A floating
    payload ships as float16 under ``downcast_fp16`` or as symmetric
    int8 (``round(x / scale)`` clipped to ±127, ``scale = amax / 127``)
    under ``quantize_int8``.
    """
    assert not (downcast_fp16 and quantize_int8), "fp16 and int8 are exclusive"
    array = np.ascontiguousarray(array)
    flags = 0
    payload_array = array
    if quantize_int8:
        amax = float(np.max(np.abs(array))) if array.size else 0.0
        scale = amax / 127.0 if amax > 0.0 else 1.0
        q = np.rint(array.astype(np.float64) / scale)
        payload_array = np.clip(q, -127, 127).astype(np.int8)
        flags |= _FLAG_INT8
    elif downcast_fp16 and array.dtype.itemsize > 2:
        payload_array = array.astype(np.float16)
        flags |= _FLAG_FP16
    payload = payload_array.tobytes()
    dtype_tag = array.dtype.str.encode("ascii")
    parts = [_FRAME_PREFIX.pack(_FRAME_MAGIC, _FRAME_VERSION, flags, dtype_tag, array.ndim)]
    parts.extend(struct.pack("<I", dim) for dim in array.shape)
    if flags & _FLAG_INT8:
        parts.append(struct.pack("<f", scale))
    parts.append(struct.pack("<Q", len(payload)))
    parts.append(payload)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# M/D/1: one slice fed Poisson frames of a fixed airtime D is exactly this
# queue, so the DES's uplink must give its closed forms.
# ---------------------------------------------------------------------------


def md1_mean_sojourn(rate: float, service_s: float) -> float:
    """Pollaczek–Khinchine: ``D + ρD / (2(1 − ρ))`` with ``ρ = λD``."""
    rho = rate * service_s
    return service_s + rho * service_s / (2.0 * (1.0 - rho))


def md1_wait_cdf(t: float, rate: float, service_s: float) -> float:
    """Erlang–Crommelin: ``P(W ≤ t) = (1 − ρ) Σ_{k ≤ ⌊t/D⌋} (λ(kD − t))^k / k!
    · e^{−λ(kD − t)}``.  The series alternates, so it is only exact to
    float precision while ``t / D`` stays small."""
    rho = rate * service_s
    total = 0.0
    for k in range(int(math.floor(t / service_s)) + 1):
        u = rate * (k * service_s - t)
        total += u**k / math.factorial(k) * math.exp(-u)
    return (1.0 - rho) * total


def md1_wait_quantile(q: float, rate: float, service_s: float) -> float:
    """The ``q``-quantile of the M/D/1 waiting time, by bisection on
    :func:`md1_wait_cdf` (0 when the atom at no wait already holds ``q``)."""
    if md1_wait_cdf(0.0, rate, service_s) >= q:
        return 0.0
    lo, hi = 0.0, service_s
    while md1_wait_cdf(hi, rate, service_s) < q:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if md1_wait_cdf(mid, rate, service_s) < q:
            lo = mid
        else:
            hi = mid
    return hi

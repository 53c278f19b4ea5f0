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
(:class:`repro.serving.queueing.ReadyQueues`, the tick index of
:class:`repro.serving.engine.WavePlan`).  The scans live on here, as
they were, so tests can drive the same runs through them and demand the
same windows, drops, metrics and trace bytes.  And the dispatcher used
to tick every window, due or not; :func:`every_window_tick` is that
rule, against which the tick that sleeps through idle windows must give
the same records, trace bytes and gauge series.

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
per batch, and must produce the same floats, stamps and draws.

The solver's scalar ancestors live here too: the per-vertex tree
(:func:`scalar_cliques`, :func:`scalar_first_branch`) that the batched
``build_cliques`` / ``first_branch`` replaced, the O(R) admission
enumeration (:func:`admission_by_enumeration`) behind the closed-form
candidate scan, and the water-fill that scanned every item after the
radio pool was spent (:func:`per_item_solve_branch`).

The DNN side has two: :func:`fresh_forward` runs a compiled plan with
every buffer in memory of its own (no arena, no lifetime packing), and
:func:`bfs_pruning_groups` finds pruning groups by breadth-first search
where the product uses a union-find.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import replace
from unittest.mock import patch

import numpy as np

from repro.cluster.qos import Hop
from repro.core.catalog import Catalog
from repro.core.solution import Assignment, DOTSolution
from repro.core.subproblem import (
    _SCAN_EPS,
    BranchAllocation,
    BranchItem,
    _best_admission_for_item,
)
from repro.core.tree import build_vector_tree, first_branch
from repro.dnn import pruning
from repro.dnn.compile import (
    CompiledModule,
    _batch_shape,
    _Binding,
    _interior,
    _iter_steps,
    _pad_shape,
)
from repro.dnn.layers import BatchNorm2d, Conv2d
from repro.emulator.simulator import Simulator
from repro.obs.metrics import MetricsRegistry
from repro.serving.metrics import LatencyStats, ServingMetrics, TaskServingMetrics
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
        if not gate.allow(task.task_id):
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
            )
            request.uplink_done_at = float(wave.deliveries[i])
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

    Routes through ``plan.segments()`` per task, hop-0 batches costed by
    the per-request trie, later-hop cost re-summed per window, two fresh
    ``Hop`` records per request per hop.  Failure and stall draws come
    from the executor's own ``_rng``, in the same order.
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

    cursor: dict[int, float] = {}  # task -> time its batch reaches hop 1
    for node_id in sorted(by_node):
        node = self.deployment.registry.node(node_id)
        batch = [r for tid in by_node[node_id] for r in groups[tid]]
        segment_of = {tid: resolved[tid][2][0] for tid in by_node[node_id]}
        ready = now + max(resolved[tid][1] for tid in by_node[node_id])
        merged, unmerged, node_merges = per_request_window_costs(
            batch, lambda r: segment_of[r.task_id].blocks
        )
        unmerged = unmerged / node.spec.cpu_scale
        cost = merged / node.spec.cpu_scale if self.prefix_cache else unmerged
        _worker, start, finish = node.execute(cost, ready)
        share = cost / len(batch)
        for request in batch:
            request.started_at = start
            request.compute_time_s = share
            request.hops = [
                Hop("queue", node_id, now, start),
                Hop("exec", node_id, start, finish),
            ]
        compute += cost
        unshared += unmerged
        merges += node_merges
        window_start = start if window_start is None else min(window_start, start)
        for tid in by_node[node_id]:
            cursor[tid] = finish

    for task_id in sorted(resolved):
        node, _delay, segments = resolved[task_id]
        batch = groups[task_id]
        at = cursor[task_id]
        prev_node_id = node.node_id
        dropped = False
        for seg_index, segment in enumerate(segments[1:], start=1):
            payload_bits = segments[seg_index - 1].egress_bits * len(batch)
            delivery, hops = self._transfer(
                prev_node_id, segment.node_id, payload_bits, at
            )
            for request in batch:
                request.hops.extend(hops)
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
                    request.hops.append(
                        Hop("queue", exec_node.node_id, delivery + delay, start)
                    )
                request.hops.append(Hop("exec", exec_node.node_id, start, finish))
            prev_node_id = exec_node.node_id
            at = finish
        if not dropped:
            for request in batch:
                request.service_done_at = at
            window_end = max(window_end, at)
        self.qos.observe_hops(batch[0].hops)

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

    One 8-tuple per task, hashed into a dict in priority order: the first
    member of a bucket (smallest id) represents it and members ascend.
    """
    buckets: dict[tuple, list[int]] = {}
    for task in problem.tasks_by_priority():
        signature = (
            id(problem.catalog.paths_for(task)),
            task.method,
            task.priority,
            task.request_rate,
            task.min_accuracy,
            task.max_latency_s,
            task.qualities,
            problem.radio.bits_per_rb(task),
        )
        buckets.setdefault(signature, []).append(task.task_id)
    return [(members[0], tuple(members)) for members in buckets.values()]


def per_member_allocate_groups(self, problem, plan, chosen) -> DOTSolution:
    """``AggregateSolver._allocate_groups`` with one dict entry per member
    (patch it over the method to get a solve's expanded twin)."""
    budgets = problem.budgets
    floor_z = self.admission_floor
    remaining_radio = float(budgets.radio_blocks)
    remaining_compute = float(budgets.compute_time_s)
    tasks_by_id = {t.task_id: t for t in problem.tasks}
    solution = DOTSolution()

    def assign(member_ids, path, z, r) -> None:
        for member_id in member_ids:
            solution.assignments[member_id] = Assignment(
                task=tasks_by_id[member_id], path=path, admission_ratio=z, radio_blocks=r
            )

    for rep_id, item in chosen:
        members = plan.groups[rep_id].member_ids
        if item is None:
            assign(members, None, 0.0, 0)
            continue
        compute_per_z = item.task.request_rate * item.path.compute_time_s
        index = 0
        while index < len(members):
            z, r = _best_admission_for_item(
                item, remaining_radio, remaining_compute, budgets.radio_blocks
            )
            if z < floor_z:
                break
            radio_demand = z * r
            compute_demand = z * compute_per_z
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
        assign(members[index:], None, 0.0, 0)
    return solution


def allocate_both_ways(solver, problem):
    """``(plan, chosen, run-backed solution, per-member twin)`` of one
    selection, so both solutions must hold the very same ``Path`` objects."""
    from repro.core.aggregate import aggregate_problem

    plan = aggregate_problem(problem)
    chosen = first_branch(build_vector_tree(plan.meta_problem), problem.budgets)
    return (
        plan,
        chosen,
        solver._allocate_groups(problem, plan, chosen),
        per_member_allocate_groups(solver, problem, plan, chosen),
    )


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
            for vertex in (BranchItem(task, path, bits_per_rb) for path in variants)
            # (1f) accuracy; (1g) compute must leave room for transmission;
            # the latency-driven RB demand must fit the radio capacity at all
            if vertex.path.effective_accuracy >= task.min_accuracy - 1e-12
            and vertex.compute_time_s < task.max_latency_s
            and vertex.min_latency_rbs() <= radio_blocks
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


def per_item_solve_branch(items, budgets, admission_floor: float = 1e-6) -> BranchAllocation:
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
        if z < admission_floor:
            admission.append(0.0)
            rbs.append(0)
            continue
        admission.append(z)
        rbs.append(r)
        remaining_radio -= z * r
        remaining_compute -= z * item.task.request_rate * item.compute_time_s
    return BranchAllocation(admission=admission, radio_blocks=rbs)


def admission_by_enumeration(
    item: BranchItem, remaining_radio: float, remaining_compute: float, max_rbs: int
) -> tuple[float, int]:
    """The original O(R) enumeration behind ``_best_admission_for_item``,
    which must return exactly this ``(z, r)`` for any item and pool state."""
    r_latency = item.min_latency_rbs()
    if r_latency > max_rbs:
        return 0.0, 0
    rate_bits = item.task.request_rate * item.path.bits_per_image
    compute_per_unit_z = item.task.request_rate * item.compute_time_s
    z_compute = (
        1.0
        if compute_per_unit_z <= 0
        else min(1.0, remaining_compute / compute_per_unit_z)
    )
    if z_compute <= 0:
        return 0.0, 0

    best_z, best_r = 0.0, 0
    r_upper = min(max_rbs, max(r_latency, item.min_rate_rbs(1.0)))
    for r in range(r_latency, r_upper + 1):
        z_rate = min(1.0, r * item.bits_per_rb / rate_bits) if rate_bits > 0 else 1.0
        z_radio = min(1.0, remaining_radio / r) if r > 0 else 1.0
        z = min(z_rate, z_radio, z_compute)
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

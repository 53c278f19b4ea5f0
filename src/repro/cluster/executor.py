"""Cluster executor: batching windows across placed segments.

Drop-in replacement for the single-node
:class:`~repro.serving.executor.BatchExecutor` inside
:class:`~repro.serving.runtime.ServingRuntime`: same
``dispatch(window, now) -> WindowReport`` contract, but each window is
driven through the :class:`~repro.cluster.orchestrator.PlacementPlan`:

1. **Hop 0** — requests whose first segments are co-placed on one node
   are cut into jobs over its workers and booked there by the
   single-node executor's rule and loop (:func:`~repro.serving.executor.
   cut_window`), fused through the same trie at the node's CPU scale:
   a one-node cluster reproduces ``BatchExecutor`` at any worker count.
2. **Streaming** — each (task, job) sub-batch's boundary activation
   travels as one wire frame (batch on the leading axis) once its job
   is done; link occupancy is FIFO and deterministic.
3. **Later hops** — the sub-batches, in (task id, job) order, queue on
   their segment's node pool and execute at that node's CPU scale,
   costed by the node's memo like hop 0, over the segment's blocks.

Every stage a batch passes — queueing, executing, streaming, retrying —
is one row of the run's :class:`~repro.cluster.qos.HopTable`
(``qos.hops``), written once per batch.  No record is built while the
run books: :meth:`ClusterExecutor.fill_hops` turns each batch's rows
into one list of :class:`~repro.cluster.qos.Hop` shared by its requests
(``request.hops``, in journey order) when they are read — after the run
(``ServingRuntime.last_requests`` calls it on first read), or batch by
batch while a traced run emits them as spans.

**Failure semantics** (fault injection, seeded and deterministic):
every segment dispatch draws against the target node's
``failure_rate``; a failed dispatch is retried once on the
next-least-loaded node hosting the segment's blocks, and a second
failure drops the batch with ``DropReason.REMOTE_ERROR``.  A transfer
that stalls past ``transfer_timeout_s`` is retried once on the same
link; a second stall drops the batch with
``DropReason.TRANSFER_TIMEOUT``.  Draws model per-dispatch RPC
outcomes, not node crashes — the same node may serve another window in
the same tick.  A node whose ``failure_rate`` is 0, and a link whose
``stall_rate`` is 0, draw nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.node import ClusterNode
from repro.cluster.orchestrator import ClusterOrchestrator, PlacementPlan, Segment
from repro.cluster.qos import QosMonitor
from repro.cluster.registry import ClusterTopology, NodeRegistry
from repro.cluster.stream import SimulatedLink, StreamRouter
from repro.core.catalog import Path
from repro.serving.executor import (
    WindowLedger, WindowReport, _book_jobs, _JobCost, _JobCosts, cut_window,
)
from repro.serving.queueing import UNSET, DropReason, ServingRequest

__all__ = ["ClusterDeployment", "ClusterExecutor"]

@dataclass
class ClusterDeployment:
    """A placed allocation: registry + plan + fabric-level knobs."""

    registry: NodeRegistry
    plan: PlacementPlan
    #: sender-side stall detection threshold for one transfer (``inf``:
    #: a stalled transfer is waited out, never retried)
    transfer_timeout_s: float = 0.05
    #: fixed latency of re-dispatching a failed segment
    retry_penalty_s: float = 0.002

    def __post_init__(self) -> None:
        # both would run a batch's clock backwards (or silently lose it)
        if not self.transfer_timeout_s > 0.0:
            raise ValueError(
                "transfer_timeout_s must be positive (inf: never time out), "
                f"got {self.transfer_timeout_s!r}"
            )
        if not 0.0 <= self.retry_penalty_s < math.inf:
            raise ValueError(
                f"retry_penalty_s must be finite and >= 0, got {self.retry_penalty_s!r}"
            )

    @classmethod
    def place(
        cls,
        problem,
        solution,
        tickets: dict[int, object],
        topology: ClusterTopology,
        orchestrator: ClusterOrchestrator | None = None,
        **knobs,
    ) -> "ClusterDeployment":
        """Build a registry from ``topology`` and place the allocation."""
        registry = NodeRegistry.from_topology(topology)
        registry.validate_residency(problem.catalog)
        orchestrator = orchestrator or ClusterOrchestrator(registry=registry)
        orchestrator.registry = registry
        plan = orchestrator.place(problem, solution, tickets)
        return cls(registry=registry, plan=plan, **knobs)

    def reset(self) -> None:
        self.registry.reset()


@dataclass(slots=True)
class _Leg:
    """One later hop of a compiled route: the stream into a segment and
    its execution there, as placed."""

    segment: Segment
    #: the segment's placed node and its job-cost memo
    node: ClusterNode
    memo: _JobCosts
    #: what the segment runs: the path with the segment's blocks
    unit: Path
    #: the node the previous segment is placed on
    src: str
    #: ``"src->dst"``, the hops' ``where``
    where: str
    #: the placed link, or ``None`` where a transfer needs the general
    #: path (a self-hop, or a link that can stall)
    link: SimulatedLink | None
    #: activation bits one request streams into the segment, framed by
    #: ``router``
    egress_bits: float
    router: StreamRouter
    #: batch size -> (frame bytes, the placed node's cost of the batch)
    by_size: dict[int, tuple[int, _JobCost]] = field(default_factory=dict)

    def sized(self, n: int) -> tuple[int, _JobCost]:
        """``by_size[n]``, filled on first sight."""
        fixed = self.by_size[n] = (
            self.router.frame_nbytes(self.egress_bits * n),
            self.memo.batch(self.unit, n),
        )
        return fixed


@dataclass(slots=True)
class _Route:
    """A task's placed route, compiled the first time the task dispatches."""

    #: hop 0: the segment and its placed node
    head: Segment
    node: ClusterNode
    #: what hop 0 runs: the path, or its first segment when split
    unit: Path
    legs: tuple[_Leg, ...]


@dataclass
class ClusterExecutor(WindowLedger):
    """Executes batching windows across the deployment's nodes.

    Each task's route is compiled once per run (:class:`_Route`), the
    first time one of its windows dispatches: hop 0's placed node, and
    for every later hop the node, the link into it, the segment's unit,
    the node's job-cost memo and — per batch size — the frame bytes and
    the memo's cost entry.  A window only looks these up.  A node that
    cannot fail and a link that cannot stall are used as placed, with no
    draw; everything else goes through :meth:`_resolve_node` and
    :meth:`_transfer`, which draw in the order the route is walked.
    """

    deployment: ClusterDeployment
    seed: int = 0
    qos: QosMonitor = field(init=False)
    _rng: np.random.Generator = field(init=False, repr=False)
    #: task id -> its compiled route
    _routes: dict[int, _Route] = field(init=False, repr=False)
    #: node id -> the node's job-cost memo, at its CPU scale
    _memos: dict[str, _JobCosts] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.qos = QosMonitor(registry=self.deployment.registry)
        self._rng = np.random.default_rng(self.seed * 9176 + 13)
        routes = self._routes = {}
        self._memos = {
            node_id: _JobCosts(
                self.prefix_cache, node.spec.cpu_scale, lambda r: routes[r.task_id].unit
            )
            for node_id, node in self.deployment.registry.nodes.items()
        }

    # -- node/link helpers -------------------------------------------------

    def _draw_fails(self, rate: float) -> bool:
        return rate > 0.0 and bool(self._rng.random() < rate)

    def _resolve_node(self, segment: Segment):
        """Pick the executing node for one segment dispatch.

        Returns ``(node, start_delay)`` or ``(None, drop_time_delay)``
        when both the placed node and its retry target fail.
        """
        registry = self.deployment.registry
        node = registry.nodes[segment.node_id]
        if not self._draw_fails(node.spec.failure_rate):
            return node, 0.0
        node.dispatch_failures += 1
        fallback = registry.least_loaded(
            segment.block_ids(), exclude=segment.node_id
        )
        penalty = self.deployment.retry_penalty_s
        if fallback is not None and not self._draw_fails(
            fallback.spec.failure_rate
        ):
            return fallback, penalty
        if fallback is not None:
            fallback.dispatch_failures += 1
        return None, penalty

    def _transfer(
        self, src: str, dst: str, payload_bits: float, now: float
    ) -> float | None:
        """One (possibly retried) activation stream over a link, each
        attempt a row of the open batch.

        Returns the delivery instant; ``None`` means both attempts
        stalled past the timeout and the batch is dropped with
        ``TRANSFER_TIMEOUT``.
        """
        router = self.deployment.registry.router
        timeout = self.deployment.transfer_timeout_s
        where = f"{src}->{dst}"
        rows = self.qos.hops.rows
        at = now
        for _attempt in range(2):
            delivery, stalled, nbytes = router.transfer_bits(
                src, dst, payload_bits, at, rng=self._rng
            )
            if not stalled or delivery - at <= timeout:
                rows.append(("transfer", where, at, delivery, nbytes))
                return delivery
            # sender notices the stall at its timeout and (once) retries
            rows.append(("retry", where, at, at + timeout, nbytes))
            at = at + timeout
        return None

    def fill_hops(self) -> None:
        """Give every request booked so far its batch's ``hops``: one
        list of :class:`~repro.cluster.qos.Hop` per batch, shared by its
        requests."""
        self.qos.hops.fill()

    def _drop_batch(
        self, batch: list[ServingRequest], reason: DropReason, at: float
    ) -> None:
        for request in batch:
            request.drop_reason = reason
            request.service_done_at = UNSET  # never finishes service
            if self.tracer.enabled:
                self.tracer.event_at(
                    f"drop.{reason.value}",
                    at,
                    cat="cluster",
                    track=f"task{request.task_id}",
                    args={"request": request.request_id},
                )

    def _compile(self, task_id: int, path: Path) -> _Route:
        """Compile (and keep) ``task_id``'s route for a request on ``path``."""
        registry = self.deployment.registry
        nodes = registry.nodes
        segments = self.deployment.plan.segments_by_task[task_id]
        units = (path,) if len(segments) == 1 else tuple(
            replace(path, blocks=segment.blocks) for segment in segments
        )
        legs = []
        for previous, segment, unit in zip(segments, segments[1:], units[1:]):
            src, dst = previous.node_id, segment.node_id
            link = None if src == dst else registry.router.link(src, dst)
            legs.append(
                _Leg(
                    segment, nodes[dst], self._memos[dst], unit, src, f"{src}->{dst}",
                    link if link is not None and link.spec.stall_rate == 0.0 else None,
                    previous.egress_bits, registry.router,
                )
            )
        head = segments[0]
        route = self._routes[task_id] = _Route(
            head, nodes[head.node_id], units[0], tuple(legs)
        )
        return route

    # -- the window pipeline ----------------------------------------------

    def dispatch(self, requests: list[ServingRequest], now: float) -> WindowReport:
        """Run one batching window through the placed segments."""
        if not requests:
            raise ValueError("cannot dispatch an empty window")
        routes = self._routes
        if len(requests) == 1:
            groups = [(requests[0].task_id, requests)]
        else:
            by_task: dict[int, list[ServingRequest]] = {}
            for request in requests:
                by_task.setdefault(request.task_id, []).append(request)
            groups = sorted(by_task.items())  # task ids are unique keys

        # resolve hop-0 nodes first (failure draws in task order), then cut
        # each node's group into jobs as the single-node executor cuts a window
        window_end = now
        by_node: dict[str, list] = {}  # node id -> [node id, node, delay, groups]
        for task_id, group in groups:
            route = routes.get(task_id) or self._compile(task_id, group[0].path)
            node, delay = route.node, 0.0
            if node.spec.failure_rate > 0.0:
                node, delay = self._resolve_node(route.head)
                if node is None:
                    self._drop_batch(group, DropReason.REMOTE_ERROR, now + delay)
                    window_end = max(window_end, now + delay)
                    continue
            placed = by_node.get(node.node_id)
            if placed is None:
                by_node[node.node_id] = [node.node_id, node, delay, [(task_id, group)]]
            else:
                placed[2] = max(placed[2], delay)
                placed[3].append((task_id, group))
        placed = by_node.values()
        if len(by_node) > 1:
            placed = sorted(placed)  # node ids are unique keys

        compute = unshared = 0.0
        merges = 0
        window_start = math.inf
        batches = []  # (task id, job order, hop-0 node id, its members of the job)
        for node_id, node, delay, tasks in placed:
            ready = now + delay
            window = (
                tasks[0][1] if len(tasks) == 1 else [r for _, g in tasks for r in g]
            )
            memo = self._memos[node_id]
            if node.spec.num_workers < 2 or len(window) < 2:
                # one job, left whole: what cut_window and _book_jobs make of
                # it, without building the job
                costs = memo.window(window)
                cost = costs.cost
                _worker, start, finish = node.execute(cost, ready)
                share = cost / len(window)
                for request in window:
                    request.started_at = start
                    request.compute_time_s = share
                    request.service_done_at = finish
                compute += cost
                unshared += costs.unshared
                merges += costs.merges
                window_start = min(window_start, start)
                batches += [(tid, 0, node_id, group) for tid, group in tasks]
                continue
            jobs = cut_window(node.pool, memo, window, ready, self.result_return_s)
            cost, unmerged, fused, start, _ = _book_jobs(jobs, node.execute, ready)
            compute += cost
            unshared += unmerged
            merges += fused
            window_start = min(window_start, start)
            if len(jobs) == 1:  # left whole: each task's batch goes on as it came
                batches += [(tid, 0, node_id, group) for tid, group in tasks]
                continue
            for order, job in enumerate(jobs):
                job_tasks: dict[int, list[ServingRequest]] = {}
                for request in job.members:
                    job_tasks.setdefault(request.task_id, []).append(request)
                batches += [(tid, order, node_id, b) for tid, b in job_tasks.items()]
        if len(batches) > 1:
            batches.sort()  # (task id, job order) is unique: nothing more compared

        # later hops: the sub-batches stream and execute independently, each
        # once its own job is done
        for task_id, _order, where, batch in batches:  # where: the batch's node
            at, compute, unshared = self._journey(
                routes[task_id], where, batch, now, compute, unshared
            )
            window_end = max(window_end, at)

        if window_start == math.inf:
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

    def _journey(
        self,
        route: _Route,
        where: str,
        batch: list[ServingRequest],
        now: float,
        compute: float,
        unshared: float,
    ) -> tuple[float, float, float]:
        """Walk one sub-batch of a hop-0 job (on node ``where``) through the
        route's later hops, booking each hop as a row of the hop table,
        and stamp its members: ``(finished or dropped at, compute,
        unshared)``.

        ``compute`` / ``unshared`` are the window's running sums, carried
        through so that the floats add in booking order."""
        n = len(batch)
        first = batch[0]
        start, at = first.started_at, first.service_done_at
        table = self.qos.hops
        table.open(batch)
        rows = table.rows
        rows.append(("queue", where, now, start, 0))
        rows.append(("exec", where, start, at, 0))
        spent = first.compute_time_s
        dropped = None
        for leg in route.legs:
            nbytes, costs = leg.by_size.get(n) or leg.sized(n)
            if leg.link is not None and where == leg.src:
                # as placed, over a link that cannot stall: one attempt
                delivery, _stalled = leg.link.transfer(nbytes, at)
                rows.append(("transfer", leg.where, at, delivery, nbytes))
            else:
                # batch travels as one frame: batch axis on the payload
                delivery = self._transfer(
                    where, leg.segment.node_id, leg.egress_bits * n, at
                )
                if delivery is None:
                    dropped = DropReason.TRANSFER_TIMEOUT
                    at += 2 * self.deployment.transfer_timeout_s
                    break
            exec_node, delay = leg.node, 0.0
            if exec_node.spec.failure_rate > 0.0:
                exec_node, delay = self._resolve_node(leg.segment)
            ready = delivery + delay
            if exec_node is None:
                dropped, at = DropReason.REMOTE_ERROR, ready
                break
            if exec_node is not leg.node:  # a retry elsewhere: that node's memo
                costs = self._memos[exec_node.node_id].batch(leg.unit, n)
            cost = costs.cost
            _worker, start, finish = exec_node.execute(cost, ready)
            compute += cost
            unshared += costs.unshared
            spent += cost / n
            where = exec_node.node_id
            if start > ready:
                rows.append(("queue", where, ready, start, 0))
            rows.append(("exec", where, start, finish, 0))
            at = finish
        if dropped is not None:
            self._drop_batch(batch, dropped, at)
        for request in batch:
            request.compute_time_s = spent
            if dropped is None:
                request.service_done_at = at
        if self.tracer.enabled:  # the tracer reads them when the batch completes
            table.fill()
        return at, compute, unshared

    def busy_workers(self, now: float) -> int:
        """Workers mid-segment across all nodes (sampler probe)."""
        return sum(
            node.busy_workers(now)
            for node in self.deployment.registry.nodes.values()
        )

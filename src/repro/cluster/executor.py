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
is one immutable :class:`~repro.cluster.qos.Hop`, built once and listed
by every request of the batch (``request.hops``, in journey order).

**Failure semantics** (fault injection, seeded and deterministic):
every segment dispatch draws against the target node's
``failure_rate``; a failed dispatch is retried once on the
next-least-loaded node hosting the segment's blocks, and a second
failure drops the batch with ``DropReason.REMOTE_ERROR``.  A transfer
that stalls past ``transfer_timeout_s`` is retried once on the same
link; a second stall drops the batch with
``DropReason.TRANSFER_TIMEOUT``.  Draws model per-dispatch RPC
outcomes, not node crashes — the same node may serve another window in
the same tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.node import ClusterNode
from repro.cluster.orchestrator import ClusterOrchestrator, PlacementPlan, Segment
from repro.cluster.qos import Hop, QosMonitor
from repro.cluster.registry import ClusterTopology, NodeRegistry
from repro.core.catalog import Path
from repro.serving.executor import (
    WindowLedger, WindowReport, _book_jobs, _JobCosts, cut_window,
)
from repro.serving.queueing import UNSET, DropReason, ServingRequest

__all__ = ["ClusterDeployment", "ClusterExecutor"]


@dataclass
class ClusterDeployment:
    """A placed allocation: registry + plan + fabric-level knobs."""

    registry: NodeRegistry
    plan: PlacementPlan
    #: sender-side stall detection threshold for one transfer
    transfer_timeout_s: float = 0.05
    #: fixed latency of re-dispatching a failed segment
    retry_penalty_s: float = 0.002

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


@dataclass
class ClusterExecutor(WindowLedger):
    """Executes batching windows across the deployment's nodes."""

    deployment: ClusterDeployment
    seed: int = 0
    qos: QosMonitor = field(init=False)
    _rng: np.random.Generator = field(init=False, repr=False)
    #: task id -> what its path runs on each hop: the path, or its segments
    _units: dict[int, tuple[Path, ...]] = field(init=False, repr=False)
    #: node id -> the node's job-cost memo, at its CPU scale
    _memos: dict[str, _JobCosts] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.qos = QosMonitor(registry=self.deployment.registry)
        self._rng = np.random.default_rng(self.seed * 9176 + 13)
        units = self._units = {}
        self._memos = {
            node_id: _JobCosts(
                self.prefix_cache, node.spec.cpu_scale, lambda r: units[r.task_id][0]
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
    ) -> tuple[float | None, list[Hop]]:
        """One (possibly retried) activation stream over a link.

        Returns ``(delivery_or_None, hops)``; ``None`` delivery means
        both attempts stalled past the timeout and the batch is dropped
        with ``TRANSFER_TIMEOUT``.
        """
        router = self.deployment.registry.router
        timeout = self.deployment.transfer_timeout_s
        where = f"{src}->{dst}"
        hops: list[Hop] = []
        at = now
        for _attempt in range(2):
            delivery, stalled, nbytes = router.transfer_bits(
                src, dst, payload_bits, at, rng=self._rng
            )
            if not stalled or delivery - at <= timeout:
                hops.append(Hop("transfer", where, at, delivery, nbytes))
                return delivery, hops
            # sender notices the stall at its timeout and (once) retries
            hops.append(Hop("retry", where, at, at + timeout, nbytes))
            at = at + timeout
        return None, hops

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

    def _run_fused(
        self, node: ClusterNode, unit: Path, n: int, ready_at: float
    ) -> tuple:
        """Cost a later-hop batch of ``n`` requests on ``unit`` (one task's
        segment) by ``node``'s memo and book it there: ``(start, finish,
        cost, unshared)``."""
        costs = self._memos[node.node_id].batch(unit, n)
        _worker, start, finish = node.execute(costs.cost, ready_at)
        return start, finish, costs.cost, costs.unshared

    # -- the window pipeline ----------------------------------------------

    def dispatch(self, requests: list[ServingRequest], now: float) -> WindowReport:
        """Run one batching window through the placed segments."""
        if not requests:
            raise ValueError("cannot dispatch an empty window")
        routes = self.deployment.plan.segments_by_task
        units = self._units
        groups: dict[int, list[ServingRequest]] = {}
        for request in requests:
            groups.setdefault(request.task_id, []).append(request)

        # resolve hop-0 nodes first (failure draws in task order), then cut
        # each node's group into jobs as the single-node executor cuts a window
        window_end = now
        compute = unshared = 0.0
        merges = 0
        by_node: dict[str, list] = {}  # node id -> [node, retry delay, task ids]
        for task_id in sorted(groups):
            first = routes[task_id][0]
            node, delay = self._resolve_node(first)
            if node is None:
                self._drop_batch(groups[task_id], DropReason.REMOTE_ERROR, now + delay)
                window_end = max(window_end, now + delay)
                continue
            if task_id not in units:
                path, route = groups[task_id][0].path, routes[task_id]
                units[task_id] = (path,) if len(route) == 1 else tuple(
                    replace(path, blocks=segment.blocks) for segment in route
                )
            placed = by_node.setdefault(node.node_id, [node, delay, []])
            placed[1] = max(placed[1], delay)
            placed[2].append(task_id)

        starts = []
        batches = []  # (task id, job order, hop-0 node id, its members of the job)
        for node_id in sorted(by_node):
            node, delay, task_ids = by_node[node_id]
            ready = now + delay
            window = [r for tid in task_ids for r in groups[tid]]
            memo = self._memos[node_id]
            jobs = cut_window(node.pool, memo, window, ready, self.result_return_s)
            cost, unmerged, fused, start, _ = _book_jobs(jobs, node.execute, ready)
            compute += cost
            unshared += unmerged
            merges += fused
            starts.append(start)
            if len(jobs) == 1:  # left whole: each task's batch goes on as it came
                batches += [(tid, 0, node_id, groups[tid]) for tid in task_ids]
                continue
            for order, job in enumerate(jobs):
                by_task: dict[int, list[ServingRequest]] = {}
                for request in job.members:
                    by_task.setdefault(request.task_id, []).append(request)
                batches += [(tid, order, node_id, b) for tid, b in by_task.items()]
        batches.sort()  # (task id, job order) is unique: nothing further is compared

        # later hops: the sub-batches stream and execute independently, each
        # once its own job is done
        timeout = self.deployment.transfer_timeout_s
        for task_id, _order, where, batch in batches:  # where: the batch's node
            segments = routes[task_id]
            start, at = batch[0].started_at, batch[0].service_done_at
            hops = [Hop("queue", where, now, start), Hop("exec", where, start, at)]
            spent = batch[0].compute_time_s
            dropped = None
            for index in range(1, len(segments)):
                segment = segments[index]
                # batch travels as one frame: batch axis on the payload
                delivery, legs = self._transfer(
                    where,
                    segment.node_id,
                    segments[index - 1].egress_bits * len(batch),
                    at,
                )
                hops += legs
                if delivery is None:
                    dropped = DropReason.TRANSFER_TIMEOUT, at + 2 * timeout
                    break
                exec_node, delay = self._resolve_node(segment)
                ready = delivery + delay
                if exec_node is None:
                    dropped = DropReason.REMOTE_ERROR, ready
                    break
                start, finish, cost, unmerged = self._run_fused(
                    exec_node, units[task_id][index], len(batch), ready
                )
                compute += cost
                unshared += unmerged
                spent += cost / len(batch)
                if start > ready:
                    hops.append(Hop("queue", exec_node.node_id, ready, start))
                hops.append(Hop("exec", exec_node.node_id, start, finish))
                where = exec_node.node_id
                at = finish
            if dropped is not None:
                reason, at = dropped
                self._drop_batch(batch, reason, at)
            window_end = max(window_end, at)
            for request in batch:
                request.hops = list(hops)
                request.compute_time_s = spent
                if dropped is None:
                    request.service_done_at = at
            self.qos.observe_hops(hops)

        window_start = min(starts, default=now)
        report = self._log_window(
            len(requests), compute, unshared, merges, window_start, window_end
        )
        if self.tracer.enabled:
            self._window_span(
                "cluster", window_start, window_end - window_start, len(requests),
                report.prefix_merges, report.saved_s,
            )
        return report

    def busy_workers(self, now: float) -> int:
        """Workers mid-segment across all nodes (sampler probe)."""
        return sum(
            node.busy_workers(now)
            for node in self.deployment.registry.nodes.values()
        )

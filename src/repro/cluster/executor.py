"""Cluster executor: batching windows across placed segments.

Drop-in replacement for the single-node
:class:`~repro.serving.executor.BatchExecutor` inside
:class:`~repro.serving.runtime.ServingRuntime`: same
``dispatch(window, now) -> WindowReport`` contract, but each window is
driven through the :class:`~repro.cluster.orchestrator.PlacementPlan`:

1. **Hop 0** — requests whose first segments are co-placed on one node
   execute as a single fused batch through the shared-prefix trie (the
   same sub-linear cost model and trie as the single-node executor, so
   a one-node cluster reproduces ``BatchExecutor`` timing exactly).
2. **Streaming** — each task batch's boundary activation travels as one
   wire frame (batch on the leading axis) over the simulated link; link
   occupancy is FIFO and deterministic.
3. **Later hops** — per-task batches queue on their segment's node
   pool and execute at that node's CPU scale, costed by the same
   function as hop 0 over the segment's blocks.

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

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.node import ClusterNode
from repro.cluster.orchestrator import ClusterOrchestrator, PlacementPlan, Segment
from repro.cluster.qos import Hop, QosMonitor
from repro.cluster.registry import ClusterTopology, NodeRegistry
from repro.serving.executor import WindowLedger, WindowReport, _fused_cost
from repro.serving.queueing import DropReason, ServingRequest

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

    def __post_init__(self) -> None:
        self.qos = QosMonitor(registry=self.deployment.registry)
        self._rng = np.random.default_rng(self.seed * 9176 + 13)

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
            if self.tracer.enabled:
                self.tracer.event_at(
                    f"drop.{reason.value}",
                    at,
                    cat="cluster",
                    track=f"task{request.task_id}",
                    args={"request": request.request_id},
                )

    def _run_fused(
        self, node: ClusterNode, groups: list[tuple], ready_at: float
    ) -> tuple[float, float, float, float, int]:
        """Cost one co-located batch at ``node``'s CPU scale and book it there.

        Every hop goes through here: ``groups`` is the batch as
        :func:`~repro.serving.executor._window_costs` takes it — the first
        segments co-placed on the node at hop 0, one task's segment later.
        Returns ``(start, finish, cost, unshared cost, merges)``.
        """
        cost, unshared, merges = _fused_cost(
            groups, self.prefix_cache, node.spec.cpu_scale
        )
        _worker, start, finish = node.execute(cost, ready_at)
        return start, finish, cost, unshared, merges

    # -- the window pipeline ----------------------------------------------

    def dispatch(self, requests: list[ServingRequest], now: float) -> WindowReport:
        """Run one batching window through the placed segments."""
        if not requests:
            raise ValueError("cannot dispatch an empty window")
        routes = self.deployment.plan.segments_by_task
        groups: dict[int, list[ServingRequest]] = {}
        for request in requests:
            groups.setdefault(request.task_id, []).append(request)

        # resolve hop-0 nodes first (failure draws in task order), then
        # fuse co-placed first segments into one batch per node
        window_start = None
        window_end = now
        compute = unshared = 0.0
        merges = 0
        by_node: dict[str, list] = {}  # node id -> [node, retry delay, task ids]
        for task_id in sorted(groups):
            node, delay = self._resolve_node(routes[task_id][0])
            if node is None:
                self._drop_batch(groups[task_id], DropReason.REMOTE_ERROR, now + delay)
                window_end = max(window_end, now + delay)
                continue
            placed = by_node.setdefault(node.node_id, [node, delay, []])
            placed[1] = max(placed[1], delay)
            placed[2].append(task_id)

        # task -> [node its batch leaves hop 0 on, when, the hops so far]
        journeys: dict[int, tuple] = {}
        for node_id in sorted(by_node):
            node, delay, task_ids = by_node[node_id]
            batch = [r for tid in task_ids for r in groups[tid]]
            segments = [
                (groups[tid][0].path.path_id, routes[tid][0].blocks, len(groups[tid]))
                for tid in task_ids
            ]
            start, finish, cost, unmerged, node_merges = self._run_fused(
                node, segments, now + delay
            )
            share = cost / len(batch)
            for request in batch:
                request.started_at = start
                request.compute_time_s = share
            compute += cost
            unshared += unmerged
            merges += node_merges
            window_start = start if window_start is None else min(window_start, start)
            # one record per hop, shared by every request that took it
            first_hops = [
                Hop("queue", node_id, now, start),
                Hop("exec", node_id, start, finish),
            ]
            for tid in task_ids:
                journeys[tid] = (node_id, finish, first_hops)

        # later hops: per-task batches stream and execute independently
        timeout = self.deployment.transfer_timeout_s
        for task_id in sorted(journeys):
            prev_node_id, at, first_hops = journeys[task_id]
            batch = groups[task_id]
            segments = routes[task_id]
            hops = list(first_hops)
            spent = batch[0].compute_time_s
            path_id = batch[0].path.path_id
            dropped = None
            for index in range(1, len(segments)):
                segment = segments[index]
                # batch travels as one frame: batch axis on the payload
                delivery, legs = self._transfer(
                    prev_node_id,
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
                start, finish, cost, unmerged, _merges = self._run_fused(
                    exec_node, [(path_id, segment.blocks, len(batch))], ready
                )
                compute += cost
                unshared += unmerged
                spent += cost / len(batch)
                if start > ready:
                    hops.append(Hop("queue", exec_node.node_id, ready, start))
                hops.append(Hop("exec", exec_node.node_id, start, finish))
                prev_node_id = exec_node.node_id
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

    def busy_workers(self, now: float) -> int:
        """Workers mid-segment across all nodes (sampler probe)."""
        return sum(
            node.busy_workers(now)
            for node in self.deployment.registry.nodes.values()
        )

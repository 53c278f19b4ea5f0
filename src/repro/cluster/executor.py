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
   pool and execute at that node's CPU scale.

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

from repro.cluster.orchestrator import ClusterOrchestrator, PlacementPlan, Segment
from repro.cluster.qos import Hop, QosMonitor
from repro.cluster.registry import ClusterTopology, NodeRegistry
from repro.serving.executor import WindowLedger, WindowReport
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
        super().__post_init__()
        self.qos = QosMonitor(registry=self.deployment.registry)
        self._rng = np.random.default_rng(self.seed * 9176 + 13)

    # -- node/link helpers -------------------------------------------------

    def _draw_fails(self, rate: float) -> bool:
        return rate > 0.0 and bool(self._rng.random() < rate)

    def _resolve_node(self, segment: Segment, now: float):
        """Pick the executing node for one segment dispatch.

        Returns ``(node, start_delay)`` or ``(None, drop_time_delay)``
        when both the placed node and its retry target fail.
        """
        registry = self.deployment.registry
        node = registry.node(segment.node_id)
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
    ) -> tuple[float | None, int, list[Hop]]:
        """One (possibly retried) activation stream over a link.

        Returns ``(delivery_or_None, nbytes, hops)``; ``None`` delivery
        means both attempts stalled past the timeout and the batch is
        dropped with ``TRANSFER_TIMEOUT``.
        """
        router = self.deployment.registry.router
        timeout = self.deployment.transfer_timeout_s
        hops: list[Hop] = []
        at = now
        for attempt in range(2):
            delivery, stalled, nbytes = router.transfer_bits(
                src, dst, payload_bits, at, rng=self._rng
            )
            if not stalled or delivery - at <= timeout:
                hops.append(Hop("transfer", f"{src}->{dst}", at, delivery, nbytes))
                return delivery, nbytes, hops
            # sender notices the stall at its timeout and (once) retries
            hops.append(Hop("retry", f"{src}->{dst}", at, at + timeout, nbytes))
            at = at + timeout
        return None, 0, hops

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

    # -- the window pipeline ----------------------------------------------

    def dispatch(self, requests: list[ServingRequest], now: float) -> WindowReport:
        """Run one batching window through the placed segments."""
        if not requests:
            raise ValueError("cannot dispatch an empty window")
        plan = self.deployment.plan
        groups: dict[int, list[ServingRequest]] = {}
        for request in requests:
            groups.setdefault(request.task_id, []).append(request)

        # resolve hop-0 nodes first (failure draws in task order), then
        # fuse co-placed first segments into one batch per node
        resolved: dict[int, tuple] = {}
        window_start = None
        window_end = now
        compute = 0.0
        unshared = 0.0
        merges = 0
        for task_id in sorted(groups):
            segments = plan.segments(task_id)
            node, delay = self._resolve_node(segments[0], now)
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
            segment_of = {
                tid: resolved[tid][2][0] for tid in by_node[node_id]
            }
            blocks_for = lambda r, seg=segment_of: seg[r.task_id].blocks  # noqa: E731
            ready = now + max(resolved[tid][1] for tid in by_node[node_id])
            _worker, start, finish, cost, unmerged, node_merges = self._run_fused(
                batch, node.execute, ready, node.spec.cpu_scale, blocks_for
            )
            compute += cost
            unshared += unmerged
            merges += node_merges
            window_start = start if window_start is None else min(window_start, start)
            for request in batch:
                request.hops = [
                    Hop("queue", node_id, now, start),
                    Hop("exec", node_id, start, finish),
                ]
            for tid in by_node[node_id]:
                cursor[tid] = finish

        # later hops: per-task batches stream and execute independently
        for task_id in sorted(resolved):
            node, _delay, segments = resolved[task_id]
            batch = groups[task_id]
            at = cursor[task_id]
            prev_node_id = node.node_id
            dropped = False
            for seg_index, segment in enumerate(segments[1:], start=1):
                # batch travels as one frame: batch axis on the payload
                payload_bits = segments[seg_index - 1].egress_bits * len(batch)
                delivery, _nbytes, hops = self._transfer(
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
                exec_node, delay = self._resolve_node(segment, delivery)
                if exec_node is None:
                    drop_at = delivery + delay
                    self._drop_batch(batch, DropReason.REMOTE_ERROR, drop_at)
                    window_end = max(window_end, drop_at)
                    dropped = True
                    break
                cost = exec_node.scaled_cost(
                    sum(
                        b.compute_time_s
                        * (1.0 + (len(batch) - 1) * self.batch_efficiency)
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
                    request.hops.append(
                        Hop("exec", exec_node.node_id, start, finish)
                    )
                prev_node_id = exec_node.node_id
                at = finish
            if not dropped:
                for request in batch:
                    request.service_done_at = at
                window_end = max(window_end, at)
            self.qos.observe_hops(batch[0].hops if batch else [])

        if window_start is None:
            window_start = now
        return self._close_window(
            len(requests), compute, unshared, merges, window_start, window_end,
            "cluster", window_end - window_start,
        )

    def busy_workers(self, now: float) -> int:
        """Workers mid-segment across all nodes (sampler probe)."""
        return sum(
            node.busy_workers(now)
            for node in self.deployment.registry.nodes.values()
        )

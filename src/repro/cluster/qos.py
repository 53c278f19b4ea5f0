"""QoS monitoring for cross-node requests.

Every hop a request takes through the fabric — queueing on a node,
executing a segment, streaming its activation over a link, retrying
after a failure — is recorded as a :class:`Hop` on the request and, when
an :mod:`repro.obs` session is attached, emitted as nested spans on the
request's own track: one ``request`` parent with ``hop.*`` children, so
a cross-node request reads as a single trace in Perfetto exactly like a
single-node one.

Per-node gauges read the clamped busy-window accounting of
:class:`repro.cluster.node.BusyTracker` (via
:meth:`repro.cluster.node.ClusterNode.utilization`), so a service tail
crossing the sampling instant never reports utilization above 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.cluster.registry import NodeRegistry
from repro.obs.metrics import DesSampler
from repro.obs.trace import NullTracer, Tracer

__all__ = ["Hop", "QosMonitor", "record_hop_spans"]


class Hop(NamedTuple):
    """One stage of a request's journey through the fabric.

    An immutable record the executor builds once per batch and hop;
    every request of the batch lists the same object.
    """

    #: ``queue`` | ``exec`` | ``transfer`` | ``retry``
    kind: str
    #: node id, or ``"src->dst"`` for transfers
    where: str
    start_s: float
    end_s: float
    #: payload bytes for transfers, 0 otherwise
    nbytes: int = 0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def record_hop_spans(
    tracer: Tracer | NullTracer, task_id: int, request_id: int, hops: list[Hop]
) -> None:
    """Emit one request's per-hop spans on its serving track.

    The spans nest inside the runtime's ``execute`` phase (they cover
    sub-intervals of it), so the cross-node pipeline shows up as one
    nested trace per request.
    """
    track = f"task{task_id}.req{request_id}"
    for hop in hops:
        tracer.record(
            f"hop.{hop.kind}",
            hop.start_s,
            hop.duration_s,
            cat="cluster",
            track=track,
            args=(
                {"where": hop.where, "bytes": hop.nbytes}
                if hop.nbytes
                else {"where": hop.where}
            ),
        )


@dataclass
class QosMonitor:
    """Per-node / per-link gauges for one cluster serving run."""

    registry: NodeRegistry
    #: hop counts by kind, aggregated across all requests
    hop_counts: dict[str, int] = field(default_factory=dict)
    #: total bytes streamed across links (wire frames, headers included)
    bytes_streamed: int = 0

    def observe_hops(self, hops: list[Hop]) -> None:
        for hop in hops:
            self.hop_counts[hop.kind] = self.hop_counts.get(hop.kind, 0) + 1
            self.bytes_streamed += hop.nbytes

    def add_probes(self, sampler: DesSampler, now_fn) -> None:
        """Register per-node gauges on the run's DES sampler.

        ``cluster.node.<id>.busy_workers`` counts workers mid-segment;
        ``cluster.node.<id>.util`` is the clamped busy fraction of the
        virtual time elapsed so far.
        """
        for node in self.registry.ordered_nodes():
            sampler.add_probe(
                f"cluster.node.{node.node_id}.busy_workers",
                lambda n=node: n.busy_workers(now_fn()),
            )
            sampler.add_probe(
                f"cluster.node.{node.node_id}.util",
                lambda n=node: (
                    n.utilization(now_fn()) if now_fn() > 0.0 else 0.0
                ),
            )

    def node_rows(self, duration_s: float) -> list[list]:
        """Per-node summary rows (CLI table / benchmark report)."""
        return [
            [
                node.node_id,
                node.spec.tier,
                node.spec.cpu_scale,
                node.segments_executed,
                node.dispatch_failures,
                100.0 * node.utilization(duration_s),
            ]
            for node in self.registry.ordered_nodes()
        ]

    NODE_HEADER = ["node", "tier", "cpu", "segments", "failures", "util %"]

    def link_rows(self) -> list[list]:
        rows = []
        for (src, dst), link in sorted(self.registry.router.links.items()):
            if link.transfers == 0:
                continue
            rows.append(
                [f"{src}->{dst}", link.transfers, link.bytes_transferred, link.stalls]
            )
        return rows

    LINK_HEADER = ["link", "transfers", "bytes", "stalls"]

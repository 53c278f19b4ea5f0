"""QoS monitoring for cross-node requests.

Every hop a batch takes through the fabric — queueing on a node,
executing a segment, streaming its activation over a link, retrying
after a failure — is one row of the run's :class:`HopTable`: an exact
tuple in :class:`Hop` field order, which the cyclic collector stops
tracking once it has seen it.  The table turns a batch's rows into
:class:`Hop` records, listed by every request of the batch
(``request.hops``), only when someone reads them: after the run, or
per batch while a traced run emits them as nested spans on the
request's own track (one ``request`` parent with ``hop.*`` children, so
a cross-node request reads as a single trace in Perfetto exactly like a
single-node one).  The run's hop counts and streamed bytes are read off
the table.

Per-node gauges read the clamped busy-window accounting of
:class:`repro.cluster.node.BusyTracker` (via
:meth:`repro.cluster.node.ClusterNode.utilization`), so a service tail
crossing the sampling instant never reports utilization above 1.0.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.cluster.registry import NodeRegistry
from repro.obs.metrics import DesSampler
from repro.obs.trace import NullTracer, Tracer

__all__ = ["Hop", "HopTable", "QosMonitor", "record_hop_spans"]


class Hop(NamedTuple):
    """One stage of a request's journey through the fabric.

    An immutable record built from a :class:`HopTable` row when the
    batch's hops are read; every request of the batch lists the same
    object.
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


class HopTable:
    """A run's hops: one row per batch and stage, in booking order.

    A row is the exact tuple ``(kind, where, start_s, end_s, nbytes)``.
    Each batch is a row offset and a run of the flat :attr:`members`
    column; its rows end where the next batch's begin.  The offsets are
    machine integers, not int objects.  :meth:`fill` hands a batch's
    requests their hops.
    """

    __slots__ = ("rows", "members", "_row_at", "_member_at", "_filled")

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        #: every batch's requests, batch after batch
        self.members: list = []
        #: each batch's first row and first member
        self._row_at = array("q")
        self._member_at = array("q")
        #: batches whose requests already list their hops
        self._filled = 0

    def open(self, batch: list) -> None:
        """Start a batch: the rows appended from here on are its hops."""
        self._row_at.append(len(self.rows))
        self._member_at.append(len(self.members))
        self.members += batch

    def fill(self) -> None:
        """Give every request of each batch not yet filled its batch's hops.

        Batch-mates share one list of :class:`Hop`.  Each row becomes its
        ``Hop`` in place, batch by batch, so the table never holds a run's
        rows and its records at once.
        """
        rows, members = self.rows, self.members
        done = self._filled
        starts, firsts = self._row_at[done:], self._member_at[done:]
        ends, lasts = self._row_at[done + 1:], self._member_at[done + 1:]
        ends.append(len(rows))
        lasts.append(len(members))
        new = tuple.__new__  # Hop's own constructor parses keywords
        for lo, hi, first, last in zip(starts, ends, firsts, lasts):
            hops = rows[lo:hi] = [new(Hop, row) for row in rows[lo:hi]]
            if last - first == 1:
                members[first].hops = hops
            else:
                for request in members[first:last]:
                    request.hops = hops
        self._filled = len(self._row_at)


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
    #: the run's hops, one row per batch and stage
    hops: HopTable = field(default_factory=HopTable)

    @property
    def hop_counts(self) -> dict[str, int]:
        """Hops by kind, counted per batch-hop: a batch's stage counts
        once, whatever the batch size."""
        counts: dict[str, int] = {}
        for row in self.hops.rows:
            counts[row[0]] = counts.get(row[0], 0) + 1
        return counts

    @property
    def bytes_streamed(self) -> int:
        """Total bytes streamed across links (wire frames, headers
        included, a stalled attempt as well)."""
        return sum(row[4] for row in self.hops.rows)

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

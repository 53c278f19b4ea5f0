"""Placement orchestrator: mapping a solved DOT allocation onto nodes.

The DOT solver decides *what* serves each task (path, admission ratio,
radio blocks); the orchestrator decides *where*.  For every admitted
task it splits the path's block sequence into contiguous per-node
segments — the split point is a placement decision, not a property of
the path — and scores candidate placements on:

* **execution time** — ``Σ c(s) / cpu_scale`` per segment;
* **transfer time** — wire-encoded activation bytes over the link
  between consecutive segments (plus link latency);
* **congestion** — the projected per-worker load each involved node
  would carry after taking the segment (offered rate × scaled compute);
* **sharing** — a bonus for co-placing a task's leading blocks on a
  node that already hosts those block ids, preserving the shared-trunk
  prefix fusion the single-node executor exploits.

The activation shipped across a split after block ``i`` is modeled as
``bits_per_image · ACTIVATION_DECAY^(i+1)`` (activations shrink as the
network downsamples), floored at ``MIN_ACTIVATION_BITS``.  Splitting
after block 0 therefore lays the exact groundwork for a future
*device-side* prefix: the boundary tensor a device would upload instead
of the raw image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.registry import NodeRegistry
from repro.core.catalog import Block, Path
from repro.core.problem import DOTProblem
from repro.core.solution import DOTSolution

__all__ = ["Segment", "PlacementPlan", "ClusterOrchestrator"]

#: floor on the modeled activation size at any split boundary
MIN_ACTIVATION_BITS = 8_000.0
#: per-boundary activation shrink factor: activations shrink as the
#: network downsamples (see the module docstring)
ACTIVATION_DECAY = 0.5


@dataclass(frozen=True)
class Segment:
    """A contiguous run of one path's blocks executing on one node."""

    node_id: str
    blocks: tuple[Block, ...]
    #: bits of activation streamed to the next segment (0 for the last)
    egress_bits: float = 0.0

    @property
    def compute_time_s(self) -> float:
        """Profiled (unscaled) compute of the segment's blocks."""
        return sum(b.compute_time_s for b in self.blocks)

    def block_ids(self) -> tuple[str, ...]:
        return tuple(b.block_id for b in self.blocks)


@dataclass
class PlacementPlan:
    """Where every admitted task's path executes."""

    segments_by_task: dict[int, tuple[Segment, ...]] = field(default_factory=dict)

    def segments(self, task_id: int) -> tuple[Segment, ...]:
        return self.segments_by_task[task_id]

    @property
    def split_tasks(self) -> int:
        """Tasks whose path crosses at least one link."""
        return sum(
            1 for segs in self.segments_by_task.values() if len(segs) > 1
        )


def activation_bits_after(path: Path, index: int) -> float:
    """Modeled activation size at the boundary after block ``index``."""
    bits = path.bits_per_image * ACTIVATION_DECAY ** (index + 1)
    return max(MIN_ACTIVATION_BITS, bits)


@dataclass
class ClusterOrchestrator:
    """Places a solved allocation's paths onto the registered nodes."""

    registry: NodeRegistry
    #: maximum segments one path may be split into (1 = never split)
    max_segments: int = 2
    #: weight of projected per-worker congestion in the placement score
    congestion_weight: float = 0.5
    #: bonus per profiled second of leading blocks already co-placed
    sharing_weight: float = 0.25

    def __post_init__(self) -> None:
        if self.max_segments < 1:
            raise ValueError("max_segments must be >= 1")

    def place(
        self,
        problem: DOTProblem,
        solution: DOTSolution,
        tickets: dict[int, object],
    ) -> PlacementPlan:
        """Greedy load-aware placement of every admitted task.

        Tasks are placed in task-id order (deterministic); each
        placement updates the projected per-node load the next task is
        scored against.
        """
        plan = PlacementPlan()
        #: projected busy seconds per second of wall time, per node
        loads: dict[str, float] = {n: 0.0 for n in self.registry.nodes}
        #: block ids already placed per node (for the sharing bonus)
        placed_blocks: dict[str, set[str]] = {n: set() for n in self.registry.nodes}
        for task in sorted(problem.tasks, key=lambda t: t.task_id):
            ticket = tickets.get(task.task_id)
            if ticket is None or not ticket.admitted:
                continue
            assignment = solution.assignment(task)
            if assignment.path is None:
                continue
            rate = max(0.0, ticket.granted_rate)
            segments = self._place_one(assignment.path, rate, loads, placed_blocks)
            plan.segments_by_task[task.task_id] = segments
        return plan

    # -- internals ---------------------------------------------------------

    def _candidates(self, path: Path) -> list[tuple[Segment, ...]]:
        """Every placement considered for one path.

        Single-node placements on each eligible node, plus (when the
        fabric has more than one node and ``max_segments >= 2``) every
        two-segment split at every block boundary across eligible node
        pairs.  Paths are short (Table I configs have ~4 blocks) and
        fabrics small, so exhaustive scoring stays cheap.
        """
        blocks = path.blocks
        candidates: list[tuple[Segment, ...]] = []
        for node in self.registry.eligible_nodes(b.block_id for b in blocks):
            candidates.append((Segment(node_id=node.node_id, blocks=blocks),))
        if self.max_segments < 2 or len(self.registry.nodes) < 2:
            return candidates
        for split in range(1, len(blocks)):
            head, tail = blocks[:split], blocks[split:]
            egress = activation_bits_after(path, split - 1)
            heads = self.registry.eligible_nodes(b.block_id for b in head)
            tails = self.registry.eligible_nodes(b.block_id for b in tail)
            for head_node in heads:
                for tail_node in tails:
                    if head_node.node_id == tail_node.node_id:
                        continue
                    candidates.append(
                        (
                            Segment(
                                node_id=head_node.node_id,
                                blocks=head,
                                egress_bits=egress,
                            ),
                            Segment(node_id=tail_node.node_id, blocks=tail),
                        )
                    )
        return candidates

    def _score(
        self,
        segments: tuple[Segment, ...],
        rate: float,
        loads: dict[str, float],
        placed_blocks: dict[str, set[str]],
    ) -> float:
        """Estimated per-request latency plus congestion penalty."""
        latency = 0.0
        congestion = 0.0
        for i, seg in enumerate(segments):
            node = self.registry.node(seg.node_id)
            exec_s = node.scaled_cost(seg.compute_time_s)
            latency += exec_s
            projected = loads[seg.node_id] + rate * exec_s
            congestion = max(
                congestion, projected / node.spec.num_workers
            )
            if i + 1 < len(segments):
                link = self.registry.router.link(
                    seg.node_id, segments[i + 1].node_id
                )
                # payload-only estimate; header bytes are negligible here
                latency += link.duration(int(seg.egress_bits / 8.0))
        sharing = 0.0
        first = segments[0]
        already = placed_blocks[first.node_id]
        for block in first.blocks:
            if block.block_id not in already:
                break
            sharing += block.compute_time_s
        return (
            latency
            + self.congestion_weight * congestion
            - self.sharing_weight * sharing
        )

    def _place_one(
        self,
        path: Path,
        rate: float,
        loads: dict[str, float],
        placed_blocks: dict[str, set[str]],
    ) -> tuple[Segment, ...]:
        candidates = self._candidates(path)
        if not candidates:
            raise ValueError(
                f"no node hosts the blocks of path {path.path_id!r}; "
                "check resident_blocks in the topology"
            )
        best = min(
            candidates,
            key=lambda segs: (
                self._score(segs, rate, loads, placed_blocks),
                len(segs),
                tuple(seg.node_id for seg in segs),
            ),
        )
        for seg in best:
            node = self.registry.node(seg.node_id)
            loads[seg.node_id] += rate * node.scaled_cost(seg.compute_time_s)
            placed_blocks[seg.node_id].update(seg.block_ids())
        return best

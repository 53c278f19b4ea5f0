"""Node registry and cluster topologies.

The :class:`NodeRegistry` is the fabric's membership view: every node's
advertised spec plus its live serving state, and the
:class:`~repro.cluster.stream.StreamRouter` carrying activations
between them.  A :class:`ClusterTopology` is the serializable
description (``nodes.json``) the CLI loads — node specs, explicit
links, and defaults for everything unspecified — with
:func:`default_topology` generating the homogeneous N-node meshes the
benchmarks sweep.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.cluster.node import ClusterNode, NodeSpec
from repro.cluster.stream import LinkSpec, StreamRouter
from repro.core.catalog import Catalog

__all__ = ["ClusterTopology", "NodeRegistry", "default_topology"]

#: the :class:`LinkSpec` fields ``nodes.json`` carries for a link or the
#: default link, in the order :meth:`ClusterTopology.to_dict` writes them
_LINK_KEYS = ("bandwidth_bps", "latency_s", "stall_rate", "stall_factor")


def _entry(entry, where: str, required: tuple[str, ...] = ()) -> dict:
    """One JSON object of ``nodes.json``, or a ``ValueError`` naming it."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be an object, got {type(entry).__name__}")
    missing = [key for key in required if key not in entry]
    if missing:
        raise ValueError(f"{where} is missing {missing}")
    return entry


@dataclass(frozen=True)
class ClusterTopology:
    """Serializable cluster description (what ``nodes.json`` holds)."""

    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...] = ()
    default_link: LinkSpec = LinkSpec(src="*", dst="*")
    fp16_activations: bool = False
    #: ship activations as int8 + scale frames (exclusive with fp16)
    int8_activations: bool = False

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a topology needs at least one node")
        if self.fp16_activations and self.int8_activations:
            raise ValueError(
                "fp16_activations and int8_activations are mutually exclusive"
            )
        ids = [spec.node_id for spec in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in topology: {ids}")
        pairs = set()
        for link in self.links:
            for end in (link.src, link.dst):
                if end not in ids:
                    raise ValueError(
                        f"link {link.src!r} -> {link.dst!r} names {end!r}, "
                        f"which is not a node of the topology ({ids})"
                    )
            if (link.src, link.dst) in pairs:
                raise ValueError(f"two links for {link.src!r} -> {link.dst!r}")
            pairs.add((link.src, link.dst))

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "ClusterTopology":
        """Read a topology from a ``nodes.json`` file."""
        data = json.loads(pathlib.Path(path).read_text())
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterTopology":
        data = _entry(data, "the topology document")
        nodes = []
        for i, entry in enumerate(data.get("nodes", [])):
            entry = _entry(entry, f"nodes[{i}]", ("node_id",))
            blocks = entry.get("resident_blocks")
            if isinstance(blocks, str):
                raise ValueError(
                    f"nodes[{i}].resident_blocks must be a list of block ids, "
                    f"got the string {blocks!r}"
                )
            nodes.append(
                NodeSpec(
                    node_id=entry["node_id"],
                    tier=entry.get("tier", "edge"),
                    cpu_scale=float(entry.get("cpu_scale", 1.0)),
                    memory_gb=float(entry.get("memory_gb", 8.0)),
                    num_workers=int(entry.get("num_workers", 1)),
                    resident_blocks=None if blocks is None else frozenset(blocks),
                    failure_rate=float(entry.get("failure_rate", 0.0)),
                )
            )
        default = _entry(data.get("default_link", {}), "default_link")
        unknown = sorted(set(default) - set(_LINK_KEYS))
        if unknown:
            raise ValueError(f"default_link takes {_LINK_KEYS}, not {unknown}")
        default_link = LinkSpec(src="*", dst="*", **default)
        links = []
        for i, entry in enumerate(data.get("links", [])):
            entry = _entry(entry, f"links[{i}]", ("src", "dst"))
            links.append(
                LinkSpec(
                    src=entry["src"],
                    dst=entry["dst"],
                    **{
                        key: float(entry.get(key, getattr(default_link, key)))
                        for key in _LINK_KEYS
                    },
                )
            )
        return cls(
            nodes=tuple(nodes),
            links=tuple(links),
            default_link=default_link,
            fp16_activations=bool(data.get("fp16_activations", False)),
            int8_activations=bool(data.get("int8_activations", False)),
        )

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "node_id": spec.node_id,
                    "tier": spec.tier,
                    "cpu_scale": spec.cpu_scale,
                    "memory_gb": spec.memory_gb,
                    "num_workers": spec.num_workers,
                    "resident_blocks": (
                        sorted(spec.resident_blocks)
                        if spec.resident_blocks is not None
                        else None
                    ),
                    "failure_rate": spec.failure_rate,
                }
                for spec in self.nodes
            ],
            "links": [
                {
                    "src": link.src,
                    "dst": link.dst,
                    **{key: getattr(link, key) for key in _LINK_KEYS},
                }
                for link in self.links
            ],
            "default_link": {
                key: getattr(self.default_link, key) for key in _LINK_KEYS
            },
            "fp16_activations": self.fp16_activations,
            "int8_activations": self.int8_activations,
        }

    def save(self, path: str | pathlib.Path) -> None:
        pathlib.Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def default_topology(
    num_nodes: int,
    cloud: bool = False,
    cpu_scale: float = 1.0,
    num_workers: int = 1,
    bandwidth_bps: float = 1e9,
    latency_s: float = 0.0005,
    fp16_activations: bool = False,
    int8_activations: bool = False,
) -> ClusterTopology:
    """A homogeneous ``num_nodes``-edge mesh, optionally plus a cloud tier.

    The cloud node (``cloud=True``) is faster (4× CPU scale) but
    farther: its links carry 20 ms of latency, the classic edge/cloud
    trade the placement scoring has to weigh.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    specs = [
        NodeSpec(
            node_id=f"edge{i}",
            tier="edge",
            cpu_scale=cpu_scale,
            num_workers=num_workers,
        )
        for i in range(num_nodes)
    ]
    links: list[LinkSpec] = []
    if cloud:
        specs.append(
            NodeSpec(
                node_id="cloud0",
                tier="cloud",
                cpu_scale=4.0 * cpu_scale,
                num_workers=num_workers,
            )
        )
        for i in range(num_nodes):
            for src, dst in ((f"edge{i}", "cloud0"), ("cloud0", f"edge{i}")):
                links.append(
                    LinkSpec(
                        src=src, dst=dst,
                        bandwidth_bps=bandwidth_bps, latency_s=0.020,
                    )
                )
    return ClusterTopology(
        nodes=tuple(specs),
        links=tuple(links),
        default_link=LinkSpec(
            src="*", dst="*", bandwidth_bps=bandwidth_bps, latency_s=latency_s
        ),
        fp16_activations=fp16_activations,
        int8_activations=int8_activations,
    )


@dataclass
class NodeRegistry:
    """Membership + live state of every node in the fabric."""

    nodes: dict[str, ClusterNode] = field(default_factory=dict)
    router: StreamRouter = field(default_factory=StreamRouter)

    @classmethod
    def from_topology(cls, topology: ClusterTopology) -> "NodeRegistry":
        registry = cls()
        for spec in topology.nodes:
            registry.register(spec)
        registry.router.default_spec = topology.default_link
        registry.router.fp16_activations = topology.fp16_activations
        registry.router.int8_activations = topology.int8_activations
        for link in topology.links:
            registry.router.add_link(link)
        return registry

    def register(self, spec: NodeSpec) -> ClusterNode:
        if spec.node_id in self.nodes:
            raise ValueError(f"node {spec.node_id!r} already registered")
        node = ClusterNode(spec=spec)
        self.nodes[spec.node_id] = node
        return node

    def node(self, node_id: str) -> ClusterNode:
        return self.nodes[node_id]

    def ordered_nodes(self) -> list[ClusterNode]:
        """Deterministic placement order: edge tier first, then by id."""
        return sorted(
            self.nodes.values(), key=lambda n: (n.spec.tier != "edge", n.node_id)
        )

    def eligible_nodes(self, block_ids) -> list[ClusterNode]:
        """Nodes hosting every block in ``block_ids`` (placement targets)."""
        block_ids = tuple(block_ids)
        return [n for n in self.ordered_nodes() if n.spec.hosts(block_ids)]

    def least_loaded(
        self, block_ids, exclude: str | None = None
    ) -> ClusterNode | None:
        """The eligible node whose earliest worker frees first.

        This is the retry target for a failed segment dispatch: ties
        break on node id so re-dispatch is deterministic.
        """
        candidates = [
            n
            for n in self.eligible_nodes(block_ids)
            if n.node_id != exclude
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (n.earliest_free_at, n.node_id))

    def validate_residency(self, catalog: Catalog) -> None:
        """Check advertised blocks exist and fit each node's memory."""
        blocks = catalog.all_blocks()
        for node in self.nodes.values():
            resident = node.spec.resident_blocks
            if resident is None:
                continue
            unknown = sorted(bid for bid in resident if bid not in blocks)
            if unknown:
                raise ValueError(
                    f"node {node.node_id!r} advertises unknown blocks {unknown}"
                )
            required = sum(blocks[bid].memory_gb for bid in resident)
            if required > node.spec.memory_gb + 1e-9:
                raise ValueError(
                    f"node {node.node_id!r} advertises {required:.2f} GB of "
                    f"resident blocks but has {node.spec.memory_gb:.2f} GB"
                )

    def reset(self) -> None:
        """Clear all serving-time state (called at the top of each run)."""
        for node in self.nodes.values():
            node.reset()
        self.router.reset()

"""repro.cluster — multi-node serving fabric.

Node roles and registry, placement of solved DOT allocations onto
nodes, a deterministic activation wire protocol over simulated links,
a cluster-wide batching executor, and per-hop QoS monitoring through
:mod:`repro.obs`.
"""

from repro.cluster.executor import ClusterDeployment, ClusterExecutor
from repro.cluster.node import ClusterNode, NodeSpec
from repro.cluster.orchestrator import ClusterOrchestrator, PlacementPlan, Segment
from repro.cluster.qos import Hop, QosMonitor, record_hop_spans
from repro.cluster.registry import ClusterTopology, NodeRegistry, default_topology
from repro.cluster.stream import LinkSpec, SimulatedLink, StreamRouter
from repro.cluster.wire import (
    WIRE_VERSION,
    TruncatedFrameError,
    VersionMismatchError,
    WireError,
    decode_frame,
    encode_frame,
    frame_nbytes,
    header_nbytes,
)

__all__ = [
    "WIRE_VERSION",
    "ClusterDeployment",
    "ClusterExecutor",
    "ClusterNode",
    "ClusterOrchestrator",
    "ClusterTopology",
    "Hop",
    "LinkSpec",
    "NodeRegistry",
    "NodeSpec",
    "PlacementPlan",
    "QosMonitor",
    "Segment",
    "SimulatedLink",
    "StreamRouter",
    "TruncatedFrameError",
    "VersionMismatchError",
    "WireError",
    "decode_frame",
    "default_topology",
    "encode_frame",
    "frame_nbytes",
    "header_nbytes",
    "record_hop_spans",
]

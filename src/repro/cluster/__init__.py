"""repro.cluster — multi-node serving fabric.

Node roles and registry, placement of solved DOT allocations onto
nodes, activation frames priced by their encoded size over simulated
links, a cluster-wide batching executor, and per-hop QoS monitoring
through :mod:`repro.obs`.
"""

from repro.cluster.executor import ClusterDeployment, ClusterExecutor
from repro.cluster.node import ClusterNode, NodeSpec
from repro.cluster.orchestrator import ClusterOrchestrator, PlacementPlan, Segment
from repro.cluster.qos import Hop, QosMonitor, record_hop_spans
from repro.cluster.registry import ClusterTopology, NodeRegistry, default_topology
from repro.cluster.stream import LinkSpec, SimulatedLink, StreamRouter

__all__ = [
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
    "default_topology",
    "record_hop_spans",
]

"""DepGraph-style structured channel pruning for the numpy ResNet.

The paper applies *magnitude pruning from DepGraph* [21] with a ratio of
80% to the fine-tuned layer-blocks only (shared blocks are left intact
because other tasks use them).  DepGraph's key idea is that structurally
coupled channels — e.g. a conv's output channels, the following batch
norm, the next conv's input channels, and every tensor tied to them
through a residual addition — must be pruned *together*.

This module reproduces that idea:

1. build a channel *dependency graph* whose nodes are (tensor, axis)
   slots and whose edges couple slots that share a channel space (a
   union-find forest over slot labels: only its connected components
   are ever read),
2. derive *pruning groups* from its connected components,
3. rank channels in each group by aggregated L2 magnitude and remove the
   lowest-magnitude fraction, slicing every coupled tensor consistently
   so the pruned network still compiles and runs.

Residual additions couple the output channels of every basic block in a
stage with the stage's projection shortcut and with the next stage's
input.  A group that touches a tensor outside the prunable set (e.g. a
pruned stage feeding an unpruned one) is *frozen* and left intact — the
same conservatism DepGraph applies to externally constrained tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dnn.graph import NamedModule, Residual
from repro.dnn.layers import BatchNorm2d, Conv2d, Linear
from repro.dnn.resnet import BLOCK_NAMES, ResNet18

__all__ = [
    "PruningGroup",
    "build_dependency_graph",
    "collect_groups",
    "prune_resnet",
    "pruned_channels",
]


@dataclass
class PruningGroup:
    """A set of coupled channel slots pruned together."""

    name: str
    size: int
    #: (layer, role) pairs; layer is a Conv2d / BatchNorm2d / Linear object
    members: list[tuple[object, str]] = field(default_factory=list)

    def importance(self) -> np.ndarray:
        """Aggregated L2 magnitude per channel across member weights."""
        scores = np.zeros(self.size, dtype=np.float64)
        found = False
        for layer, role in self.members:
            if isinstance(layer, Conv2d) and role == "out":
                scores += np.sqrt((layer.weight.astype(np.float64) ** 2).sum(axis=(1, 2, 3)))
                found = True
            elif isinstance(layer, Conv2d) and role == "in":
                scores += np.sqrt((layer.weight.astype(np.float64) ** 2).sum(axis=(0, 2, 3)))
                found = True
            elif isinstance(layer, Linear) and role == "in":
                scores += np.sqrt((layer.weight.astype(np.float64) ** 2).sum(axis=0))
                found = True
        if not found:
            raise ValueError(f"group {self.name} has no weight to rank")
        return scores

    def apply(self, keep: np.ndarray) -> None:
        """Slice every member tensor down to the ``keep`` channel indices."""
        for layer, role in self.members:
            if isinstance(layer, Conv2d):
                if role == "out":
                    layer.weight = np.ascontiguousarray(layer.weight[keep])
                    if layer.bias is not None:
                        layer.bias = np.ascontiguousarray(layer.bias[keep])
                    layer.out_channels = len(keep)
                else:
                    layer.weight = np.ascontiguousarray(layer.weight[:, keep])
                    layer.in_channels = len(keep)
            elif isinstance(layer, BatchNorm2d):
                layer.gamma = np.ascontiguousarray(layer.gamma[keep])
                layer.beta = np.ascontiguousarray(layer.beta[keep])
                layer.running_mean = np.ascontiguousarray(layer.running_mean[keep])
                layer.running_var = np.ascontiguousarray(layer.running_var[keep])
                layer.channels = len(keep)
            elif isinstance(layer, Linear):
                if role != "in":
                    raise ValueError("linear layers are pruned on the input axis only")
                layer.weight = np.ascontiguousarray(layer.weight[:, keep])
                layer.in_features = len(keep)
            else:
                raise TypeError(f"cannot prune layer of type {type(layer)!r}")


def _stage_residuals(stage: NamedModule) -> list[Residual]:
    residuals = [layer for layer in stage.layers if isinstance(layer, Residual)]
    if not residuals:
        raise ValueError(f"stage {stage.name} has no residual blocks")
    return residuals


class _GraphBuilder:
    """Accumulates channel slots and coupling edges.

    The edges go into a union-find forest (``parent``) over slot labels;
    ``members`` keeps the slots in creation order.
    """

    def __init__(self) -> None:
        self.parent: dict[str, str] = {}
        self.frozen: set[str] = set()
        self.members: dict[str, list[tuple[object, str]]] = {}
        self._next = 0

    def slot(self, layer: object, role: str) -> str:
        label = f"s{self._next}:{role}"
        self._next += 1
        self.parent[label] = label
        self.members[label] = [(layer, role)]
        return label

    def root(self, label: str) -> str:
        while self.parent[label] != label:
            # path halving: point at the grandparent on the way up
            self.parent[label] = self.parent[self.parent[label]]
            label = self.parent[label]
        return label

    def tie(self, a: str, b: str) -> None:
        self.parent[self.root(a)] = self.root(b)

    def freeze(self, label: str) -> None:
        self.frozen.add(label)

    def components(self) -> list[list[str]]:
        """Connected components, each in slot-creation order, ordered by
        their smallest label."""
        groups: dict[str, list[str]] = {}
        for label in self.members:
            groups.setdefault(self.root(label), []).append(label)
        return sorted(groups.values(), key=min)


def build_dependency_graph(
    model: ResNet18, prunable: set[str]
) -> tuple[_GraphBuilder, dict[str, list[tuple[object, str]]]]:
    """Build the channel dependency graph of the prunable stages.

    Returns the graph and a mapping node-label -> (layer, role) members.
    Connected components are pruning groups; components containing a
    node in ``graph.frozen`` may not be pruned.
    """
    builder = _GraphBuilder()
    stage_names = [n for n in BLOCK_NAMES if n.startswith("layer")]

    # ``prev_out``: output slot of the previous *pruned* stage, or None
    # when the previous producer keeps full width.
    prev_out: str | None = None
    prev_pruned = False
    for name in stage_names:
        stage = model.blocks[name]
        if name not in prunable:
            # This stage consumes the previous output at fixed width, so a
            # pruned predecessor's output group must stay intact.
            if prev_pruned and prev_out is not None:
                builder.freeze(prev_out)
            prev_out = None
            prev_pruned = False
            continue

        residuals = _stage_residuals(stage)
        block_out: str | None = None  # output slot of the previous residual
        for position, res in enumerate(residuals):
            conv1 = res.body.layers[0]
            bn1 = res.body.layers[1]
            conv2 = res.body.layers[3]
            bn2 = res.body.layers[4]

            s_c1in = builder.slot(conv1, "in")
            s_c1out = builder.slot(conv1, "out")
            s_bn1 = builder.slot(bn1, "out")
            s_c2in = builder.slot(conv2, "in")
            s_c2out = builder.slot(conv2, "out")
            s_bn2 = builder.slot(bn2, "out")

            # internal group: conv1 out <-> bn1 <-> conv2 in
            builder.tie(s_c1out, s_bn1)
            builder.tie(s_bn1, s_c2in)
            # block output group: conv2 out <-> bn2
            builder.tie(s_c2out, s_bn2)

            if res.shortcut is not None:
                sc_conv = res.shortcut.layers[0]
                sc_bn = res.shortcut.layers[1]
                s_sc_in = builder.slot(sc_conv, "in")
                s_sc_out = builder.slot(sc_conv, "out")
                s_sc_bn = builder.slot(sc_bn, "out")
                builder.tie(s_sc_out, s_sc_bn)
                builder.tie(s_sc_out, s_c2out)  # residual addition
                builder.tie(s_sc_in, s_c1in)  # both consume block input
            else:
                # identity shortcut: block input and output share channels
                builder.tie(s_c1in, s_c2out)

            # wire the block input to its producer
            if position == 0:
                if prev_out is not None:
                    builder.tie(s_c1in, prev_out)
                else:
                    builder.freeze(s_c1in)
            else:
                assert block_out is not None
                builder.tie(s_c1in, block_out)
            block_out = s_c2out

        prev_out = block_out
        prev_pruned = True

    # layer4 output feeds the classifier head, whose linear input axis can
    # always be sliced alongside (the head is task specific).
    if prev_pruned and prev_out is not None:
        if "layer4" in prunable:
            head = model.blocks["head"]
            linear = next(l for l in head.layers if isinstance(l, Linear))
            s_lin = builder.slot(linear, "in")
            builder.tie(s_lin, prev_out)
        else:
            builder.freeze(prev_out)

    return builder, builder.members


def collect_groups(
    graph: _GraphBuilder, slot_members: dict[str, list[tuple[object, str]]]
) -> list[PruningGroup]:
    """Turn connected components of the dependency graph into groups.

    Members come in slot-creation order, so ``PruningGroup.importance``
    sums them in the same order in every process.  Components containing
    a frozen node are skipped.
    """
    groups: list[PruningGroup] = []
    for index, component in enumerate(graph.components()):
        if graph.frozen.intersection(component):
            continue
        members = [member for label in component for member in slot_members[label]]
        sizes = set()
        for layer, role in members:
            if isinstance(layer, Conv2d):
                sizes.add(layer.out_channels if role == "out" else layer.in_channels)
            elif isinstance(layer, BatchNorm2d):
                sizes.add(layer.channels)
            elif isinstance(layer, Linear):
                sizes.add(layer.in_features)
        if len(sizes) != 1:
            raise ValueError(f"inconsistent channel sizes in group {index}: {sizes}")
        groups.append(PruningGroup(name=f"group{index}", size=sizes.pop(), members=members))
    return groups


def pruned_channels(size: int, ratio: float) -> int:
    """Channels remaining after pruning ``size`` channels at ``ratio``.

    At least one channel is always kept.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError("pruning ratio must be in [0, 1)")
    return max(1, int(round(size * (1.0 - ratio))))


def prune_resnet(model: ResNet18, stages: set[str] | list[str], ratio: float) -> int:
    """Prune the given ResNet stages in place at ``ratio``.

    ``stages`` is a subset of ``{"layer1", ..., "layer4"}``.  Channels are
    removed per dependency group by aggregated L2 magnitude, the criterion
    of magnitude DepGraph pruning.  Returns the number of channel groups
    actually pruned.
    """
    prunable = set(stages)
    unknown = prunable - {n for n in BLOCK_NAMES if n.startswith("layer")}
    if unknown:
        raise ValueError(f"unknown or unprunable stages: {sorted(unknown)}")
    if not prunable:
        return 0
    graph, slot_members = build_dependency_graph(model, prunable)
    groups = collect_groups(graph, slot_members)
    for group in groups:
        keep_count = pruned_channels(group.size, ratio)
        scores = group.importance()
        keep = np.sort(np.argsort(scores)[::-1][:keep_count])
        group.apply(keep)
    return len(groups)

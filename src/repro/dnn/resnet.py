"""ResNet-18 built from the numpy engine.

The paper treats ResNet-18 as a *feature extractor* composed of layer-
blocks: a stem, four residual stages (``layer1`` .. ``layer4``) and a
classifier head.  Table I's CONFIG A..E freeze/fine-tune/prune these
blocks; the DOT catalog treats them as the shareable units ``s^d``.

The canonical ImageNet geometry (input 224x224) is supported, but the
default input resolution is configurable so that tests and benchmarks can
run quickly on CPU while preserving the architecture arithmetic (channel
doubling, stride-2 downsampling, identity/projection shortcuts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dnn.graph import NamedModule, Residual, Sequential
from repro.dnn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
)

__all__ = [
    "BlockwiseModel",
    "ResNet18",
    "build_resnet18",
    "basic_block",
    "BLOCK_NAMES",
]

#: Order of the shareable layer-blocks, stem first.
BLOCK_NAMES = ("stem", "layer1", "layer2", "layer3", "layer4", "head")


def basic_block(
    in_channels: int,
    out_channels: int,
    stride: int,
    rng: np.random.Generator,
) -> Residual:
    """A ResNet *BasicBlock*: two 3x3 convolutions + shortcut."""
    body = Sequential(
        Conv2d(in_channels, out_channels, kernel=3, stride=stride, padding=1, rng=rng),
        BatchNorm2d(out_channels),
        ReLU(),
        Conv2d(out_channels, out_channels, kernel=3, stride=1, padding=1, rng=rng),
        BatchNorm2d(out_channels),
    )
    shortcut: Sequential | None = None
    if stride != 1 or in_channels != out_channels:
        shortcut = Sequential(
            Conv2d(in_channels, out_channels, kernel=1, stride=stride, padding=0, rng=rng),
            BatchNorm2d(out_channels),
        )
    return Residual(body, shortcut)


@dataclass
class BlockwiseModel:
    """A feature-extractor CNN assembled from named layer-blocks.

    The container is architecture agnostic (ResNet-18 and MobileNetV2
    both use it): what matters to the rest of the system is the
    partition into the shareable blocks of ``BLOCK_NAMES``.

    Attributes
    ----------
    blocks:
        Mapping block name -> :class:`NamedModule`, in ``BLOCK_NAMES``
        order.  ``head`` contains global pooling + the linear classifier.
    input_shape:
        (C, H, W) the model expects.
    num_classes:
        Size of the classifier output.
    """

    blocks: dict[str, NamedModule]
    input_shape: tuple[int, int, int]
    num_classes: int
    width: int = 64
    _as_sequential: Sequential = field(init=False, repr=False)

    def __post_init__(self) -> None:
        missing = [n for n in BLOCK_NAMES if n not in self.blocks]
        if missing:
            raise ValueError(f"missing blocks: {missing}")
        self._as_sequential = Sequential(*[self.blocks[n] for n in BLOCK_NAMES])

    def param_count(self) -> int:
        return sum(b.param_count() for b in self.blocks.values())

    def flops(self) -> int:
        return self._as_sequential.flops(self.input_shape)


#: Backwards-compatible alias: ResNet-18 was the first architecture
#: built on this container.
ResNet18 = BlockwiseModel


def build_resnet18(
    num_classes: int = 60,
    input_size: int = 32,
    width: int = 64,
    seed: int = 0,
) -> ResNet18:
    """Construct a ResNet-18.

    Parameters
    ----------
    num_classes:
        Classifier output size (the base dataset of Table II has 60).
    input_size:
        Square input resolution.  224 reproduces the ImageNet geometry;
        the default 32 keeps CPU profiling fast while preserving the
        relative block costs.
    width:
        Stem channel count (64 in the standard model).  Smaller widths
        scale every stage proportionally — useful for fast tests.
    seed:
        Seed for weight initialization.
    """
    if input_size < 8:
        raise ValueError("input_size must be >= 8")
    rng = np.random.default_rng(seed)
    w = width
    # For small inputs (CIFAR-style), use a 3x3 stem without max pooling,
    # the standard adaptation; for >= 64 px use the ImageNet 7x7 stem.
    if input_size >= 64:
        stem = NamedModule(
            "stem",
            Conv2d(3, w, kernel=7, stride=2, padding=3, rng=rng),
            BatchNorm2d(w),
            ReLU(),
            MaxPool2d(kernel=3, stride=2, padding=1),
        )
    else:
        stem = NamedModule(
            "stem",
            Conv2d(3, w, kernel=3, stride=1, padding=1, rng=rng),
            BatchNorm2d(w),
            ReLU(),
        )

    def stage(name: str, c_in: int, c_out: int, stride: int) -> NamedModule:
        return NamedModule(
            name,
            basic_block(c_in, c_out, stride, rng),
            basic_block(c_out, c_out, 1, rng),
        )

    blocks = {
        "stem": stem,
        "layer1": stage("layer1", w, w, 1),
        "layer2": stage("layer2", w, 2 * w, 2),
        "layer3": stage("layer3", 2 * w, 4 * w, 2),
        "layer4": stage("layer4", 4 * w, 8 * w, 2),
        "head": NamedModule(
            "head",
            GlobalAvgPool(),
            Flatten(),
            Linear(8 * w, num_classes, rng=rng),
        ),
    }
    return ResNet18(
        blocks=blocks,
        input_shape=(3, input_size, input_size),
        num_classes=num_classes,
        width=width,
    )

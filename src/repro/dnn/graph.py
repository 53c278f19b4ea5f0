"""Module composition for the numpy DNN engine.

Provides ``Sequential`` and ``Residual`` containers sufficient to express
ResNet-style architectures, with the same profiling interface as single
layers (FLOPs, parameter count, activation sizes).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.dnn.layers import Layer

__all__ = ["Module", "Sequential", "Residual", "NamedModule"]


class Module(Layer):
    """Base class for composite modules."""

    def children(self) -> list[Layer]:
        """Immediate sub-layers in execution order."""
        raise NotImplementedError

    def iter_layers(self) -> Iterator[Layer]:
        """All primitive (non-composite) layers, depth first."""
        for child in self.children():
            if isinstance(child, Module):
                yield from child.iter_layers()
            else:
                yield child

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for child in self.children():
            params.extend(child.parameters())
        return params


class Sequential(Module):
    """Layers applied one after another."""

    kind = "sequential"

    def __init__(self, *layers: Layer) -> None:
        self.layers = list(layers)

    def children(self) -> list[Layer]:
        return list(self.layers)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        shape = input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        total = 0
        shape = input_shape
        for layer in self.layers:
            total += layer.flops(shape)
            shape = layer.output_shape(shape)
        return total

    def activation_size(self, input_shape: tuple[int, ...]) -> int:
        # Peak per-layer activation (inference engines reuse buffers, so
        # the footprint is governed by the largest intermediate tensor).
        shape = input_shape
        peak = int(np.prod(input_shape))
        for layer in self.layers:
            shape = layer.output_shape(shape)
            peak = max(peak, int(np.prod(shape)))
        return peak

    def total_activations(self, input_shape: tuple[int, ...]) -> int:
        """Sum of all intermediate activation sizes (training footprint)."""
        shape = input_shape
        total = 0
        for layer in self.layers:
            if isinstance(layer, Residual):
                total += layer.total_activations(shape)
            elif isinstance(layer, Sequential):
                total += layer.total_activations(shape)
            else:
                shape_out = layer.output_shape(shape)
                total += int(np.prod(shape_out))
                shape = shape_out
                continue
            shape = layer.output_shape(shape)
        return total


class Residual(Module):
    """Residual connection: ``act(body(x) + shortcut(x))``.

    ``shortcut`` is identity when ``None`` (the channel counts and strides
    must then match).  ``activation`` is ``"relu"`` for ResNet blocks or
    ``"linear"`` for MobileNetV2's inverted residuals, whose bottleneck
    addition is deliberately not rectified.
    """

    kind = "residual"

    def __init__(
        self,
        body: Sequential,
        shortcut: Layer | None = None,
        activation: str = "relu",
    ) -> None:
        if activation not in ("relu", "linear"):
            raise ValueError(f"unknown residual activation {activation!r}")
        self.body = body
        self.shortcut = shortcut
        self.activation = activation

    def children(self) -> list[Layer]:
        kids: list[Layer] = [self.body]
        if self.shortcut is not None:
            kids.append(self.shortcut)
        return kids

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return self.body.output_shape(input_shape)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        total = self.body.flops(input_shape)
        if self.shortcut is not None:
            total += self.shortcut.flops(input_shape)
        # add + relu
        total += 2 * int(np.prod(self.output_shape(input_shape)))
        return total

    def activation_size(self, input_shape: tuple[int, ...]) -> int:
        return self.body.activation_size(input_shape)

    def total_activations(self, input_shape: tuple[int, ...]) -> int:
        total = self.body.total_activations(input_shape)
        if self.shortcut is not None:
            total += int(np.prod(self.shortcut.output_shape(input_shape)))
        total += int(np.prod(self.output_shape(input_shape)))
        return total


class NamedModule(Sequential):
    """A ``Sequential`` with a name — used for the ResNet layer-blocks
    that the paper composes into DNN "paths"."""

    kind = "named"

    def __init__(self, name: str, *layers: Layer) -> None:
        super().__init__(*layers)
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NamedModule({self.name!r}, {len(self.layers)} layers)"

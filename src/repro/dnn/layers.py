"""Parameterized layer objects for the numpy DNN engine.

A layer describes part of a model: it holds its parameter tensors (for
pruning and compilation) and reports its parameter count, FLOPs and
activation size for a given input shape.  It does not run:
:func:`repro.dnn.compile.compile_module` is the one executor.
"""

from __future__ import annotations

import numpy as np

from repro.dnn import ops

__all__ = [
    "Layer",
    "Conv2d",
    "DepthwiseConv2d",
    "ReLU6",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool",
    "Flatten",
    "Linear",
    "BYTES_PER_PARAM",
]

# float32 storage, matching the paper's (non-quantized) deployments.
BYTES_PER_PARAM = 4


class Layer:
    """Base class for all layers."""

    #: human-readable layer kind, set by subclasses
    kind: str = "layer"

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape (without the batch dim) produced for ``input_shape``."""
        raise NotImplementedError

    def param_count(self) -> int:
        return sum(int(p.size) for p in self.parameters())

    def parameters(self) -> list[np.ndarray]:
        """Parameter tensors (may be empty)."""
        return []

    def flops(self, input_shape: tuple[int, ...]) -> int:
        """FLOPs for one sample with the given (C, H, W) input shape."""
        return 0

    def activation_size(self, input_shape: tuple[int, ...]) -> int:
        """Number of scalars in the output activation for one sample."""
        return int(np.prod(self.output_shape(input_shape)))


class Conv2d(Layer):
    """2-D convolution layer (no bias, as in ResNet conv layers)."""

    kind = "conv2d"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        # He initialization, standard for ReLU networks.
        fan_in = in_channels * kernel * kernel
        std = float(np.sqrt(2.0 / fan_in))
        self.weight = rng.normal(0.0, std, (out_channels, in_channels, kernel, kernel)).astype(
            np.float32
        )
        self.bias = np.zeros(out_channels, dtype=np.float32) if bias else None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        _, h, w = input_shape
        out_h = ops.conv_output_size(h, self.kernel, self.stride, self.padding)
        out_w = ops.conv_output_size(w, self.kernel, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def parameters(self) -> list[np.ndarray]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def flops(self, input_shape: tuple[int, ...]) -> int:
        _, out_h, out_w = self.output_shape(input_shape)
        return ops.conv2d_flops(self.in_channels, self.out_channels, self.kernel, out_h, out_w)


class DepthwiseConv2d(Layer):
    """Depthwise convolution: one K x K filter per channel (MobileNet)."""

    kind = "depthwiseconv2d"

    def __init__(
        self,
        channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if channels <= 0:
            raise ValueError("channels must be positive")
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        std = float(np.sqrt(2.0 / (kernel * kernel)))
        self.weight = rng.normal(0.0, std, (channels, kernel, kernel)).astype(np.float32)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        _, h, w = input_shape
        out_h = ops.conv_output_size(h, self.kernel, self.stride, self.padding)
        out_w = ops.conv_output_size(w, self.kernel, self.stride, self.padding)
        return (self.channels, out_h, out_w)

    def parameters(self) -> list[np.ndarray]:
        return [self.weight]

    def flops(self, input_shape: tuple[int, ...]) -> int:
        _, out_h, out_w = self.output_shape(input_shape)
        return ops.depthwise_conv2d_flops(self.channels, self.kernel, out_h, out_w)


class ReLU6(Layer):
    """MobileNet's clipped rectifier."""

    kind = "relu6"

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 2 * int(np.prod(input_shape))


class BatchNorm2d(Layer):
    """Inference-mode batch normalization."""

    kind = "batchnorm2d"

    def __init__(self, channels: int) -> None:
        self.channels = channels
        self.gamma = np.ones(channels, dtype=np.float32)
        self.beta = np.zeros(channels, dtype=np.float32)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def parameters(self) -> list[np.ndarray]:
        return [self.gamma, self.beta, self.running_mean, self.running_var]

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 2 * int(np.prod(input_shape))


class ReLU(Layer):
    kind = "relu"

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return int(np.prod(input_shape))


class MaxPool2d(Layer):
    kind = "maxpool2d"

    def __init__(self, kernel: int, stride: int, padding: int = 0) -> None:
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = ops.conv_output_size(h, self.kernel, self.stride, self.padding)
        out_w = ops.conv_output_size(w, self.kernel, self.stride, self.padding)
        return (c, out_h, out_w)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return int(np.prod(self.output_shape(input_shape))) * self.kernel * self.kernel


class GlobalAvgPool(Layer):
    kind = "globalavgpool"

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (input_shape[0],)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return int(np.prod(input_shape))


class Flatten(Layer):
    kind = "flatten"

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class Linear(Layer):
    """Fully connected layer."""

    kind = "linear"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        std = float(np.sqrt(2.0 / in_features))
        self.weight = rng.normal(0.0, std, (out_features, in_features)).astype(np.float32)
        self.bias = np.zeros(out_features, dtype=np.float32)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (self.out_features,)

    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 2 * self.in_features * self.out_features

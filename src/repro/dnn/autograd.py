"""Reverse-mode differentiation for the numpy DNN engine.

The training simulator (:mod:`repro.dnn.training`) covers the paper's
long fine-tuning runs with a calibrated surrogate; this module provides
the *real thing* for small models: exact backward passes for every
layer of the engine, so a Table I configuration's trainable suffix can
be fine-tuned with genuine gradients (see :mod:`repro.dnn.finetune`).

Design: a functional API rather than a tape.  ``forward(layer, x)``
returns ``(y, cache)``; ``backward(layer, cache, grad_y)`` returns
``(grad_x, param_grads)`` where ``param_grads`` aligns with
``layer.parameters()`` (entries are ``None`` for non-learnable
statistics such as batch-norm running moments).  Composites
(``Sequential``, ``Residual``) recurse.

Batch normalization runs in *training mode* here (batch statistics,
with running-moment updates), matching what a framework does during
fine-tuning; inference uses the layers' own ``forward``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dnn import ops
from repro.dnn.graph import Residual, Sequential
from repro.dnn.layers import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Flatten,
    GlobalAvgPool,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
)

__all__ = ["forward", "backward", "col2im", "softmax_cross_entropy_grad"]


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold im2col columns back into an image (the adjoint of im2col).

    ``cols``: (N, C*K*K, P) with P = out_h * out_w.  Overlapping window
    contributions are summed, which is exactly the gradient flow of the
    unfold operation.
    """
    n, c, h, w = input_shape
    out_h = ops.conv_output_size(h, kernel, stride, padding)
    out_w = ops.conv_output_size(w, kernel, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    reshaped = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    for ki in range(kernel):
        i_end = ki + stride * out_h
        for kj in range(kernel):
            j_end = kj + stride * out_w
            padded[:, :, ki:i_end:stride, kj:j_end:stride] += reshaped[:, :, ki, kj]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def softmax_cross_entropy_grad(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    probs = ops.softmax(logits, axis=1)
    n = logits.shape[0]
    loss = float(-np.log(np.clip(probs[np.arange(n), labels], 1e-12, None)).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


@dataclass
class _Cache:
    """Opaque per-layer forward cache."""

    kind: str
    data: Any


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def forward(layer: Layer, x: np.ndarray) -> tuple[np.ndarray, _Cache]:
    """Training-mode forward pass with the cache ``backward`` needs."""
    if isinstance(layer, Sequential):  # NamedModule included
        caches = []
        out = x
        for child in layer.layers:
            out, cache = forward(child, out)
            caches.append(cache)
        return out, _Cache("sequential", caches)
    if isinstance(layer, Residual):
        body_out, body_cache = forward(layer.body, x)
        if layer.shortcut is not None:
            short_out, short_cache = forward(layer.shortcut, x)
        else:
            short_out, short_cache = x, None
        total = body_out + short_out
        if layer.activation == "relu":
            out = np.maximum(total, 0.0)
            mask = total > 0
        else:
            out = total
            mask = None
        return out, _Cache("residual", (body_cache, short_cache, mask))
    if isinstance(layer, Conv2d):
        cols, out_h, out_w = ops.im2col(x, layer.kernel, layer.stride, layer.padding)
        w_mat = layer.weight.reshape(layer.out_channels, -1)
        out = np.einsum("oc,ncp->nop", w_mat, cols, optimize=True)
        if layer.bias is not None:
            out += layer.bias[None, :, None]
        out = out.reshape(x.shape[0], layer.out_channels, out_h, out_w)
        return out, _Cache("conv2d", (x.shape, cols))
    if isinstance(layer, DepthwiseConv2d):
        out = layer(x)
        return out, _Cache("depthwise", (x,))
    if isinstance(layer, BatchNorm2d):
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = layer.gamma[None, :, None, None] * x_hat + layer.beta[None, :, None, None]
        # running-moment update, momentum 0.1 (the framework default)
        layer.running_mean = (0.9 * layer.running_mean + 0.1 * mean).astype(np.float32)
        layer.running_var = (0.9 * layer.running_var + 0.1 * var).astype(np.float32)
        return out, _Cache("batchnorm", (x_hat, inv_std))
    if isinstance(layer, (ReLU,)):
        out = np.maximum(x, 0.0)
        return out, _Cache("relu", (x > 0,))
    if isinstance(layer, ReLU6):
        out = np.clip(x, 0.0, 6.0)
        return out, _Cache("relu", ((x > 0) & (x < 6.0),))
    if isinstance(layer, MaxPool2d):
        cols, out_h, out_w = ops.im2col(x, layer.kernel, layer.stride, layer.padding)
        n, c = x.shape[0], x.shape[1]
        windows = cols.reshape(n, c, layer.kernel * layer.kernel, out_h * out_w)
        argmax = windows.argmax(axis=2)
        out = np.take_along_axis(windows, argmax[:, :, None, :], axis=2)[:, :, 0, :]
        out = out.reshape(n, c, out_h, out_w)
        return out, _Cache("maxpool", (x.shape, argmax, out_h, out_w))
    if isinstance(layer, GlobalAvgPool):
        return x.mean(axis=(2, 3)), _Cache("gap", (x.shape,))
    if isinstance(layer, Flatten):
        flat = x.reshape(x.shape[0], int(np.prod(x.shape[1:])))
        return flat, _Cache("flatten", (x.shape,))
    if isinstance(layer, Linear):
        return ops.linear(x, layer.weight, layer.bias), _Cache("linear", (x,))
    raise TypeError(f"no training-mode forward for layer {type(layer)!r}")


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(
    layer: Layer, cache: _Cache, grad_y: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Gradient of the loss w.r.t. the layer input and its parameters."""
    if isinstance(layer, Sequential):
        grads: list[np.ndarray | None] = []
        grad = grad_y
        child_grads: list[list[np.ndarray | None]] = []
        for child, child_cache in zip(reversed(layer.layers), reversed(cache.data)):
            grad, param_grads = backward(child, child_cache, grad)
            child_grads.append(param_grads)
        for param_grads in reversed(child_grads):
            grads.extend(param_grads)
        return grad, grads
    if isinstance(layer, Residual):
        body_cache, short_cache, mask = cache.data
        grad = grad_y if mask is None else grad_y * mask
        grad_body, body_grads = backward(layer.body, body_cache, grad)
        if layer.shortcut is not None:
            grad_short, short_grads = backward(layer.shortcut, short_cache, grad)
            return grad_body + grad_short, body_grads + short_grads
        return grad_body + grad, body_grads
    if isinstance(layer, Conv2d):
        x_shape, cols = cache.data
        n = grad_y.shape[0]
        grad_mat = grad_y.reshape(n, layer.out_channels, -1)
        grad_w = np.einsum("nop,ncp->oc", grad_mat, cols, optimize=True).reshape(
            layer.weight.shape
        )
        w_mat = layer.weight.reshape(layer.out_channels, -1)
        grad_cols = np.einsum("oc,nop->ncp", w_mat, grad_mat, optimize=True)
        grad_x = col2im(grad_cols, x_shape, layer.kernel, layer.stride, layer.padding)
        grads: list[np.ndarray | None] = [grad_w]
        if layer.bias is not None:
            grads.append(grad_mat.sum(axis=(0, 2)))
        return grad_x, grads
    if isinstance(layer, DepthwiseConv2d):
        (x,) = cache.data
        k, stride, padding = layer.kernel, layer.stride, layer.padding
        n, c, h, w = x.shape
        out_h = ops.conv_output_size(h, k, stride, padding)
        out_w = ops.conv_output_size(w, k, stride, padding)
        if padding > 0:
            x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        else:
            x_pad = x
        s0, s1, s2, s3 = x_pad.strides
        windows = np.lib.stride_tricks.as_strided(
            x_pad,
            shape=(n, c, k, k, out_h, out_w),
            strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
            writeable=False,
        )
        grad_w = np.einsum("nckhij,ncij->ckh", windows, grad_y, optimize=True)
        # grad wrt input: scatter grad_y * w over the windows
        grad_pad = np.zeros_like(x_pad)
        for ki in range(k):
            i_end = ki + stride * out_h
            for kj in range(k):
                j_end = kj + stride * out_w
                grad_pad[:, :, ki:i_end:stride, kj:j_end:stride] += (
                    grad_y * layer.weight[None, :, ki, kj, None, None]
                )
        grad_x = (
            grad_pad[:, :, padding:-padding, padding:-padding] if padding else grad_pad
        )
        return grad_x, [grad_w]
    if isinstance(layer, BatchNorm2d):
        x_hat, inv_std = cache.data
        axes = (0, 2, 3)
        m = float(np.prod([grad_y.shape[a] for a in axes]))
        grad_gamma = (grad_y * x_hat).sum(axis=axes)
        grad_beta = grad_y.sum(axis=axes)
        grad_xhat = grad_y * layer.gamma[None, :, None, None]
        grad_x = (
            inv_std[None, :, None, None]
            / m
            * (
                m * grad_xhat
                - grad_xhat.sum(axis=axes)[None, :, None, None]
                - x_hat * (grad_xhat * x_hat).sum(axis=axes)[None, :, None, None]
            )
        )
        # parameters() order: gamma, beta, running_mean, running_var
        return grad_x, [grad_gamma, grad_beta, None, None]
    if cache.kind == "relu":
        (mask,) = cache.data
        return grad_y * mask, []
    if isinstance(layer, MaxPool2d):
        x_shape, argmax, out_h, out_w = cache.data
        n, c = x_shape[0], x_shape[1]
        windows_grad = np.zeros(
            (n, c, layer.kernel * layer.kernel, out_h * out_w), dtype=grad_y.dtype
        )
        flat = grad_y.reshape(n, c, out_h * out_w)
        np.put_along_axis(windows_grad, argmax[:, :, None, :], flat[:, :, None, :], axis=2)
        cols = windows_grad.reshape(n, c * layer.kernel * layer.kernel, out_h * out_w)
        grad_x = col2im(cols, x_shape, layer.kernel, layer.stride, layer.padding)
        return grad_x, []
    if isinstance(layer, GlobalAvgPool):
        (x_shape,) = cache.data
        n, c, h, w = x_shape
        grad_x = np.broadcast_to(
            grad_y[:, :, None, None] / (h * w), x_shape
        ).astype(grad_y.dtype)
        return grad_x.copy(), []
    if isinstance(layer, Flatten):
        (x_shape,) = cache.data
        return grad_y.reshape(x_shape), []
    if isinstance(layer, Linear):
        (x,) = cache.data
        grad_w = grad_y.T @ x
        grad_b = grad_y.sum(axis=0)
        grad_x = grad_y @ layer.weight
        return grad_x, [grad_w, grad_b]
    raise TypeError(f"no backward for layer {type(layer)!r}")

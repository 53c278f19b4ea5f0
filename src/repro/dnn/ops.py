"""Numpy kernels of the compiled DNN engine, and the FLOP counters.

All operations use the NCHW layout (batch, channels, height, width) and
float32 arithmetic.  Convolution is implemented with im2col + GEMM, the
standard strategy of CPU inference engines, so that measured wall-clock
time scales with FLOPs the same way a production engine does.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv2d_flops",
    "conv2d_fused",
    "depthwise_conv2d_flops",
    "depthwise_conv2d_fused",
    "apply_activation_",
    "bn_scale_shift",
    "conv_output_size",
]

#: epsilon used by inference-mode batch normalization (and its folding)
BN_EPS = 1e-5


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def conv2d_flops(
    c_in: int, c_out: int, kernel: int, out_h: int, out_w: int
) -> int:
    """Multiply-accumulate count (x2 for FLOPs) of a conv layer."""
    return 2 * c_in * c_out * kernel * kernel * out_h * out_w


def depthwise_conv2d_flops(channels: int, kernel: int, out_h: int, out_w: int) -> int:
    """Multiply-accumulate count (x2 for FLOPs) of a depthwise conv."""
    return 2 * channels * kernel * kernel * out_h * out_w


def apply_activation_(out: np.ndarray, activation: str | None) -> np.ndarray:
    """Apply ``activation`` (``None``/``"relu"``/``"relu6"``) in place."""
    if activation is None:
        return out
    if activation == "relu":
        return np.maximum(out, 0.0, out=out)
    if activation == "relu6":
        return np.clip(out, 0.0, 6.0, out=out)
    raise ValueError(f"unknown fused activation {activation!r}")


def conv2d_fused(
    x: np.ndarray,
    w_mat: np.ndarray,
    bias: np.ndarray | None,
    kernel: int,
    stride: int,
    out_h: int,
    out_w: int,
    out: np.ndarray,
    cols: np.ndarray | None = None,
    activation: str | None = None,
) -> np.ndarray:
    """Fused convolution + bias + activation on a *pre-padded* input.

    The compiled engine's conv kernel: ``x`` is (N, C, Hp, Wp) with any
    padding already applied, ``w_mat`` is the pre-laid-out GEMM matrix
    (C_out, C*K*K) (batch-norm scale/shift folded in by the compiler),
    ``out`` is a preallocated buffer of N * C_out * out_h * out_w
    elements (any contiguous shape) and ``cols`` a flat im2col scratch
    buffer reused across layers.  Bias addition and activation clipping
    happen in place on the GEMM output.  Returns a
    (N, C_out, out_h, out_w) view of ``out``.
    """
    n, c = x.shape[0], x.shape[1]
    p = out_h * out_w
    if kernel == 1 and stride == 1:
        # 1x1 stride-1 conv is a plain GEMM over the spatial positions —
        # no im2col copy at all (the MobileNet expansion/projection case).
        cols_view = x.reshape(n, c, p)
    elif kernel == 1:
        window = x[:, :, ::stride, ::stride][:, :, :out_h, :out_w]
        cols_view = cols[: n * c * p].reshape(n, c, out_h, out_w)
        np.copyto(cols_view, window)
        cols_view = cols_view.reshape(n, c, p)
    else:
        s0, s1, s2, s3 = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, kernel, kernel, out_h, out_w),
            strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
            writeable=False,
        )
        ckk = c * kernel * kernel
        cols_view = cols[: n * ckk * p].reshape(n, c, kernel, kernel, out_h, out_w)
        np.copyto(cols_view, windows)
        cols_view = cols_view.reshape(n, ckk, p)
    out = out.reshape(n, -1, p)
    np.matmul(w_mat, cols_view, out=out)
    if bias is not None:
        out += bias[None, :, None]
    apply_activation_(out, activation)
    return out.reshape(n, -1, out_h, out_w)


def depthwise_conv2d_fused(
    x: np.ndarray,
    w_mat: np.ndarray,
    bias: np.ndarray | None,
    kernel: int,
    stride: int,
    out_h: int,
    out_w: int,
    out: np.ndarray,
    cols: np.ndarray,
    activation: str | None = None,
) -> np.ndarray:
    """Fused depthwise convolution + bias + activation, pre-padded input.

    Runs the depthwise filter as C batched (1, K*K) x (K*K, P) GEMMs per
    sample rather than one 6-D einsum over the whole batch.  The
    per-sample loop keeps the im2col gather cache-resident: ``cols`` is a
    flat scratch holding *one* sample's columns, refilled per sample, so
    the working set stays ~C*K*K*P floats regardless of batch size.

    ``x`` is (N, C, Hp, Wp) already padded, ``w_mat`` the pre-laid-out
    (C, 1, K*K) filter (BN folded in), ``out`` a preallocated
    (N, C, out_h, out_w) buffer.  Returns ``out``.
    """
    n, c = x.shape[0], x.shape[1]
    p = out_h * out_w
    _, s1, s2, s3 = x.strides
    cols_view = cols[: c * kernel * kernel * p].reshape(
        c, kernel, kernel, out_h, out_w
    )
    cols_mat = cols_view.reshape(c, kernel * kernel, p)
    for sample in range(n):
        windows = np.lib.stride_tricks.as_strided(
            x[sample],
            shape=(c, kernel, kernel, out_h, out_w),
            strides=(s1, s2, s3, s2 * stride, s3 * stride),
            writeable=False,
        )
        np.copyto(cols_view, windows)
        np.matmul(w_mat, cols_mat, out=out[sample].reshape(c, 1, p))
    if bias is not None:
        out += bias[None, :, None, None]
    apply_activation_(out, activation)
    return out


def bn_scale_shift(
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = BN_EPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel affine ``(scale, shift)`` equivalent of inference BN.

    Computed in float64 so the compiler can fold it into convolution
    weights without losing float32 precision.
    """
    scale = gamma.astype(np.float64) / np.sqrt(running_var.astype(np.float64) + eps)
    shift = beta.astype(np.float64) - running_mean.astype(np.float64) * scale
    return scale, shift

"""Raw numpy tensor operations used by the DNN engine.

All operations use the NCHW layout (batch, channels, height, width) and
float32 arithmetic.  Convolution is implemented with im2col + GEMM, the
standard strategy of CPU inference engines, so that measured wall-clock
time scales with FLOPs the same way a production engine does.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col",
    "conv2d",
    "conv2d_flops",
    "conv2d_fused",
    "depthwise_conv2d",
    "depthwise_conv2d_flops",
    "depthwise_conv2d_fused",
    "apply_activation_",
    "relu6",
    "batch_norm",
    "bn_scale_shift",
    "relu",
    "max_pool2d",
    "global_avg_pool",
    "linear",
    "conv_output_size",
]

#: epsilon used by inference-mode batch normalization (and its folding)
BN_EPS = 1e-5


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into GEMM-ready columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N, C * kernel * kernel, out_h * out_w)``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    # Strided view: (N, C, kernel, kernel, out_h, out_w)
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kernel, kernel, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    cols = windows.reshape(n, c * kernel * kernel, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D convolution.

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in, K, K);
    ``bias``: (C_out,) or None.  Returns (N, C_out, H_out, W_out).
    """
    n = x.shape[0]
    c_out, c_in, k, _ = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, weight expects {c_in}"
        )
    cols, out_h, out_w = im2col(x, k, stride, padding)
    w_mat = weight.reshape(c_out, c_in * k * k)
    out = np.einsum("oc,ncp->nop", w_mat, cols, optimize=True)
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(n, c_out, out_h, out_w)


def conv2d_flops(
    c_in: int, c_out: int, kernel: int, out_h: int, out_w: int
) -> int:
    """Multiply-accumulate count (x2 for FLOPs) of a conv layer."""
    return 2 * c_in * c_out * kernel * kernel * out_h * out_w


def depthwise_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Depthwise 2-D convolution (one filter per input channel).

    ``x``: (N, C, H, W); ``weight``: (C, K, K).  Returns
    (N, C, H_out, W_out).  The workhorse of MobileNet-style separable
    convolutions.
    """
    n, c, h, w = x.shape
    if weight.shape[0] != c:
        raise ValueError(
            f"channel mismatch: input has {c}, depthwise weight expects {weight.shape[0]}"
        )
    k = weight.shape[1]
    out_h = conv_output_size(h, k, stride, padding)
    out_w = conv_output_size(w, k, stride, padding)
    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k, k, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return np.einsum("nckhij,ckh->ncij", windows, weight, optimize=True)


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
    sample — much faster than the 6-D einsum of the eager kernel.  The
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


def relu6(x: np.ndarray) -> np.ndarray:
    """Clipped rectifier used by MobileNet: min(max(x, 0), 6)."""
    return np.clip(x, 0.0, 6.0)


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


def batch_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = BN_EPS,
) -> np.ndarray:
    """Inference-mode batch normalization over the channel axis."""
    scale = gamma / np.sqrt(running_var + eps)
    shift = beta - running_mean * scale
    return x * scale[None, :, None, None] + shift[None, :, None, None]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def max_pool2d(x: np.ndarray, kernel: int, stride: int, padding: int = 0) -> np.ndarray:
    """Max pooling with a square window."""
    cols, out_h, out_w = im2col(x, kernel, stride, padding)
    n, c = x.shape[0], x.shape[1]
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    return cols.max(axis=2).reshape(n, c, out_h, out_w)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Average over the spatial dimensions: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


def linear(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    weight_t: np.ndarray | None = None,
) -> np.ndarray:
    """Fully connected layer: ``x`` (N, F) x ``weight`` (O, F) -> (N, O).

    ``weight_t`` is an optional pre-transposed contiguous copy of
    ``weight`` (F, O); :class:`repro.dnn.layers.Linear` caches one so the
    transpose is not re-derived on every call.
    """
    out = x @ (weight.T if weight_t is None else weight_t)
    if bias is not None:
        out = out + bias
    return out

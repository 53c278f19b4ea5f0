"""Compiled inference engine: BN folding, op fusion, buffer-reusing plans.

A model (:mod:`repro.dnn.layers` / :mod:`repro.dnn.graph`) describes
its layers and does not run.  :func:`compile_module` is the one executor:
it walks a ``Sequential`` / ``Residual`` / ``NamedModule`` tree once and
emits an execution *plan* of fused steps, which the profiler, the
serving runtime and the emulation benchmarks run.  A layer type it has
no step for is a ``TypeError``, not a slower path nobody priced.

Optimization passes
-------------------

1. **BN folding** — a ``BatchNorm2d`` following a ``Conv2d`` or
   ``DepthwiseConv2d`` is folded into the convolution's weights and bias
   (computed in float64, stored float32), removing two full-tensor
   passes per convolution.
2. **Op fusion** — conv + bias + ``ReLU``/``ReLU6`` become one kernel
   (:func:`repro.dnn.ops.conv2d_fused` /
   :func:`~repro.dnn.ops.depthwise_conv2d_fused`) that adds the bias and
   clips in place on the GEMM output.  Residual add + activation is one
   in-place step as well.
3. **Weight pre-layout** — the (C_out, C_in*K*K) GEMM matrix of every
   convolution and the contiguous transpose of every ``Linear`` weight
   are materialized once at compile time instead of per call.
4. **Buffer arena** — a plan owns weights, never buffers.  The first
   ``forward`` at a tile size (item 5) on a thread *binds* the plan: all
   activation shapes are known from the compiled input shape, so the
   shared im2col/temp scratch and every step's output and pad buffer get
   fixed offsets of that thread's one grow-only arena.  The scratch sits
   at the base; the buffers behind it are packed by lifetime, so two
   that are never live at once share bytes and a binding is as large as
   what its plan holds live at once.  Nothing is live across forwards
   (``forward`` returns a copy), so the arena is shared by every plan and
   batch size the thread runs and is as large as the neediest of them,
   not their sum; when it has to grow every binding is dropped and
   rebuilt on the new block.  A pad buffer is zeroed each time its step
   runs, since whatever ran in between may have written there.
   Steady-state forwards allocate nothing but the output they return, and
   concurrent ``forward`` calls from different threads never share
   mutable buffers.
5. **Tiles** — a forward binds at most ``_TILE`` (8) samples: a larger
   batch runs as consecutive tiles, the last one the remainder, each on
   the binding of its own size and copied into the one output.  At 32
   the int8 convs' whole-batch GEMM operands no longer fit in cache and
   the whole-batch bindings are 3-4x larger; the tiles are as fast or
   faster and give the same bits (see ``_TILE``).

:class:`CompiledModule` is a :class:`~repro.dnn.layers.Layer` whose
``output_shape`` / ``flops`` delegate to the source module, plus the
``forward`` the profiler, repository and ``serving.BlockwiseRunner``
run.  :func:`compile_module` is the one way to build a plan.

The plan snapshots the module's weights: mutate the source (pruning,
fine-tuning) and you must re-compile.  Inputs are cast to float32; the
arena is rewritten by the next forward, so each forward returns a fresh
copy of the output.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.dnn import ops
from repro.dnn.graph import Residual, Sequential
from repro.obs.trace import current_tracer
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

__all__ = ["CompiledModule", "compile_module", "fold_batch_norm"]


def fold_batch_norm(
    weight: np.ndarray,
    bias: np.ndarray | None,
    bn: BatchNorm2d,
    depthwise: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``bn``'s scale/shift into convolution ``weight``/``bias``.

    ``weight`` is (C_out, C_in, K, K) — or (C, K, K) with
    ``depthwise=True`` — and the returned pair is float32 with the bias
    always materialized (BN contributes a shift even to bias-free convs).
    """
    scale, shift = ops.bn_scale_shift(
        bn.gamma, bn.beta, bn.running_mean, bn.running_var
    )
    expand = scale[:, None, None] if depthwise else scale[:, None, None, None]
    folded_w = weight.astype(np.float64) * expand
    folded_b = shift if bias is None else bias.astype(np.float64) * scale + shift
    return folded_w.astype(np.float32), folded_b.astype(np.float32)


#: arena offsets are cache-line multiples
_ALIGN = 64
#: most bytes of im2col scratch an fp32 conv binds: it gathers and
#: multiplies its batch in chunks that fit (its GEMMs are per sample)
_COLS_CAP = 4 << 20
#: most samples a forward binds: a larger batch runs as consecutive tiles
#: of this many (``CompiledModule.forward``).  Not below the batch sizes
#: the repository fits its batch law to (``repository._LAW_BATCH_SIZES``),
#: so every binding the law is measured on runs unchanged.  A batch of 32
#: through ResNet-18 w32 (32 px, its six block plans chained) run as
#: tiles of t samples: ms per sample (min of 7 forwards) and the largest
#: block binding (2-vCPU Xeon @ 2.1 GHz, numpy 2.4.6 on OpenBLAS 0.3.31,
#: one BLAS thread)::
#:
#:     t             1     2     4     8     16    32
#:     fp32 ms       6.36  7.14  5.64  6.24  7.58  7.60
#:     int8 ms       8.00  6.18  5.71  5.25  5.43  6.56
#:     fp32 arena MB 1.6   3.3   5.4   7.5   11.6  19.9
#:     int8 arena MB 0.8   1.6   3.2   6.5   12.9  25.9
#:
#: Past 8 the int8 convs' whole-tile GEMM operands (w32 ``layer1``'s
#: ``kw`` gather is 13.5 MB at 32) fall out of cache, and at 16 and up
#: ``layer4`` binds F(2,3) Winograd and lays out its float32 shadows.
_TILE = 8


def _batch_shape(shape: tuple, n, dtype) -> tuple:
    """Whole-batch shape (or index) of a per-sample ``shape`` (or index).

    int8 activations are channel-major ``(C, H, N, W)`` (see
    :mod:`repro.dnn.quantize`); everything else is batch-major.
    """
    if dtype is np.int8 and len(shape) == 3:
        return (shape[0], shape[1], n, shape[2])
    return (n, *shape)


def _nbytes(shape: tuple[int, ...], dtype) -> int:
    return int(np.prod(shape)) * np.dtype(dtype).itemsize


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


class _Arena:
    """One thread's plan memory: a grow-only block and the bound views.

    Nothing a plan writes is live across forwards (``forward`` returns a
    copy), so every plan and batch size a thread runs lays its scratch,
    step outputs and pad buffers out at offsets of the same ``block``,
    which is exactly as large as the neediest of them.  ``bound`` maps
    plan -> tile size -> :class:`_Binding`; replacing the block drops
    every binding, so no view of the old block survives to keep it alive
    or be written to.
    """

    def __init__(self) -> None:
        self.block = np.empty(0, dtype=np.uint8)
        self.bound: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @property
    def nbytes(self) -> int:
        """Bytes this arena owns: its block."""
        return self.block.nbytes

    def reserve(self, nbytes: int) -> None:
        if nbytes > self.block.nbytes:
            self.bound.clear()
            # the old block is freed before its successor is allocated
            self.block = np.empty(0, dtype=np.uint8)
            block = np.empty(nbytes + _ALIGN, dtype=np.uint8)
            skew = -block.ctypes.data % _ALIGN
            self.block = block[skew : skew + nbytes]

    def view(self, offset: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        end = offset + _nbytes(shape, dtype)
        return self.block[offset:end].view(dtype).reshape(shape)

    def release(self) -> None:
        self.__init__()


def _pad_shape(step: "_Step", n: int) -> tuple[int, ...]:
    """Whole-batch shape of ``step``'s padded input buffer."""
    c, h, w = step.in_shape
    p = step.padding
    return _batch_shape((c, h + 2 * p, w + 2 * p), n, step.in_dtype)


def _interior(pad: np.ndarray, step: "_Step") -> np.ndarray:
    """The view of ``step``'s pad buffer its input is copied into."""
    _, h, w = step.in_shape
    p = step.padding
    inner = (slice(None), slice(p, p + h), slice(p, p + w))
    # the index laid out as the buffer's shape is
    return pad[_batch_shape(inner, slice(None), step.in_dtype)]


_THREAD = threading.local()


def _thread_arena() -> _Arena:
    arena = getattr(_THREAD, "arena", None)
    if arena is None:
        arena = _THREAD.arena = _Arena()
    return arena


class _Binding:
    """One plan's views on one arena for one batch size.

    ``cols`` / ``tmp`` are the flat float32 gather and elementwise
    scratch every step of the plan shares; ``bufs`` maps each step to
    ``(pad interior, pad, output, token)``.  A pad shares its bytes with
    buffers live at other times and with other plans' bindings, so it is
    zeroed on every entry.
    """

    __slots__ = ("cols", "tmp", "bufs")

    def __init__(self, cols: np.ndarray, tmp: np.ndarray) -> None:
        self.cols = cols
        self.tmp = tmp
        self.bufs: dict[_Step, tuple] = {}

    def enter(self, step: "_Step", x: np.ndarray) -> tuple:
        """``(x inside its zero border, output buffer, token)`` for ``step``."""
        interior, pad, out, token = self.bufs[step]
        if pad is not None:
            # one memset: the border's side columns are runs of `padding`
            # elements, so filling the border alone cost 0.8-1.3x this for
            # fp32 pads of up to 32 channels and 1.4-21x for every other
            # ResNet-18 w32 pad (n = 1 / 8 / 32)
            pad.fill(0)
            interior[...] = x
            x = pad
        return x, out, token


class _Step:
    """One node of the execution plan.

    A step owns weights, never buffers: it declares what it needs and
    the plan binds views for it (:meth:`CompiledModule._bind`).
    """

    label = "step"
    #: output shape for one sample
    out_shape: tuple[int, ...] = ()
    #: dtype of the bound output buffer (None: the step needs none)
    out_dtype = np.float32
    #: dtype of the input, hence of the pad buffer when ``padding`` > 0
    in_dtype = np.float32
    padding = 0
    #: per-sample im2col scratch elements this step needs
    cols_elems = 0
    #: per-sample elementwise-temp scratch elements this step needs
    tmp_elems = 0

    def bind(self, n: int) -> tuple[int, int, object]:
        """``(gather elements, temp elements, token)`` for a batch of ``n``;
        the token comes back to :meth:`run` with the buffers."""
        return n * self.cols_elems, n * self.tmp_elems, None

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        raise NotImplementedError


class _FusedConv(_Step):
    """conv2d (+ folded BN) + bias + activation as one GEMM kernel."""

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray | None,
        kernel: int,
        stride: int,
        padding: int,
        activation: str | None,
        in_shape: tuple[int, ...],
        out_shape: tuple[int, ...],
        label: str,
    ) -> None:
        c_out = weight.shape[0]
        self.w_mat = np.ascontiguousarray(
            weight.reshape(c_out, -1), dtype=np.float32
        )
        self.bias = None if bias is None else np.ascontiguousarray(bias, np.float32)
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.activation = activation
        self.in_shape = in_shape
        self.out_shape = out_shape
        self.label = label
        c = in_shape[0]
        oh, ow = out_shape[1], out_shape[2]
        if kernel == 1 and stride == 1 and padding == 0:
            self.cols_elems = 0  # GEMM straight on the input view
        elif kernel == 1:
            self.cols_elems = c * oh * ow
        else:
            self.cols_elems = c * kernel * kernel * oh * ow

    def bind(self, n: int) -> tuple[int, int, object]:
        # the gather scratch holds a chunk of the batch, not the batch
        per_sample = _nbytes((self.cols_elems,), np.float32)
        chunk = max(1, min(n, _COLS_CAP // max(1, per_sample)))
        return chunk * self.cols_elems, 0, chunk

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, chunk = b.enter(self, x)
        for i in range(0, x.shape[0], chunk):
            ops.conv2d_fused(
                x[i : i + chunk],
                self.w_mat,
                self.bias,
                self.kernel,
                self.stride,
                self.out_shape[1],
                self.out_shape[2],
                out=out[i : i + chunk],
                cols=b.cols,
                activation=self.activation,
            )
        return out


class _FusedDepthwise(_Step):
    """depthwise conv (+ folded BN) + bias + activation via batched GEMM."""

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int,
        padding: int,
        activation: str | None,
        in_shape: tuple[int, ...],
        out_shape: tuple[int, ...],
        label: str,
    ) -> None:
        c, k = weight.shape[0], weight.shape[1]
        self.w_mat = np.ascontiguousarray(
            weight.reshape(c, 1, k * k), dtype=np.float32
        )
        self.bias = None if bias is None else np.ascontiguousarray(bias, np.float32)
        self.kernel = k
        self.stride = stride
        self.padding = padding
        self.activation = activation
        self.in_shape = in_shape
        self.out_shape = out_shape
        self.label = label
        self._cols = c * k * k * out_shape[1] * out_shape[2]

    def bind(self, n: int) -> tuple[int, int, object]:
        # the fused kernel gathers one sample's columns at a time
        return self._cols, 0, None

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        return ops.depthwise_conv2d_fused(
            x,
            self.w_mat,
            self.bias,
            self.kernel,
            self.stride,
            self.out_shape[1],
            self.out_shape[2],
            out=out,
            cols=b.cols,
            activation=self.activation,
        )


class _BatchNormAct(_Step):
    """Standalone BN (no foldable conv before it), + optional activation."""

    def __init__(
        self, bn: BatchNorm2d, activation: str | None, shape: tuple[int, ...]
    ) -> None:
        self.out_shape = shape
        self.label = "batchnorm" + (f"+{activation}" if activation else "")
        scale, shift = ops.bn_scale_shift(
            bn.gamma, bn.beta, bn.running_mean, bn.running_var
        )
        self.scale = scale.astype(np.float32).reshape(1, -1, 1, 1)
        self.shift = shift.astype(np.float32).reshape(1, -1, 1, 1)
        self.activation = activation

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        np.multiply(x, self.scale, out=out)
        out += self.shift
        return ops.apply_activation_(out, self.activation)


class _Act(_Step):
    """Standalone activation (writes a bound buffer: the incoming array
    may be the caller's input, which must not be clipped in place)."""

    def __init__(self, activation: str, shape: tuple[int, ...]) -> None:
        self.out_shape = shape
        self.label = self.activation = activation

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        if self.activation == "relu":
            return np.maximum(x, 0.0, out=out)
        return np.clip(x, 0.0, 6.0, out=out)


def _max_pool(
    x: np.ndarray, out: np.ndarray, kernel: int, stride: int, oh: int, ow: int,
    h_axis: int,
) -> np.ndarray:
    """Tap-wise maximum over a pre-padded ``x`` — no im2col copy.

    ``h_axis`` is where the height sits (2 batch-major, 1 channel-major);
    the width is the last axis in both layouts.
    """
    index = [slice(None)] * 4
    first = True
    for i in range(kernel):
        index[h_axis] = slice(i, i + stride * (oh - 1) + 1, stride)
        for j in range(kernel):
            index[3] = slice(j, j + stride * (ow - 1) + 1, stride)
            window = x[tuple(index)]
            if first:
                np.copyto(out, window)
                first = False
            else:
                np.maximum(out, window, out=out)
    return out


class _MaxPool(_Step):
    """Max pooling by tap-wise maximum over a zero-padded input."""

    def __init__(
        self,
        layer: MaxPool2d,
        in_shape: tuple[int, ...],
        out_shape: tuple[int, ...],
    ) -> None:
        self.out_shape = out_shape
        self.label = f"maxpool{layer.kernel}x{layer.kernel}"
        self.kernel = layer.kernel
        self.stride = layer.stride
        self.padding = layer.padding
        self.in_shape = in_shape

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        return _max_pool(
            x, out, self.kernel, self.stride, self.out_shape[1], self.out_shape[2], 2
        )


class _GlobalAvgPool(_Step):
    label = "globalavgpool"

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.out_shape = (shape[0],)

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        return np.mean(x, axis=(2, 3), out=out)


class _Flatten(_Step):
    label = "flatten"
    out_dtype = None

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.out_shape = (int(np.prod(shape)),)

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        # by the per-sample size: numpy cannot infer -1 for an empty batch
        return x.reshape(x.shape[0], *self.out_shape)


class _LinearStep(_Step):
    """Linear with the transposed weight laid out once at compile time."""

    label = "linear"

    def __init__(self, layer: Linear, shape: tuple[int, ...]) -> None:
        self.out_shape = (layer.out_features,)
        self.w_t = np.ascontiguousarray(layer.weight.T, dtype=np.float32)
        self.bias = np.ascontiguousarray(layer.bias, dtype=np.float32)

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        np.matmul(x, self.w_t, out=out)
        out += self.bias
        return out


class _ResidualStep(_Step):
    """Residual: compiled body/shortcut sub-plans + in-place add+act."""

    out_dtype = None  # the merge lands in the body's last buffer

    def __init__(
        self,
        body: list[_Step],
        shortcut: list[_Step] | None,
        activation: str,
        out_shape: tuple[int, ...],
    ) -> None:
        self.body = body
        self.shortcut = shortcut
        self.activation = activation
        self.out_shape = out_shape
        self.label = f"residual+{activation}"

    def sub_plans(self) -> list[list["_Step"]]:
        return [self.body] + ([self.shortcut] if self.shortcut else [])

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        identity = x
        if self.shortcut is not None:
            for step in self.shortcut:
                identity = step.run(identity, b)
        out = x
        for step in self.body:
            out = step.run(out, b)
        if np.may_share_memory(out, identity):  # defensive: plan buffers
            out = out + identity  # are distinct, but a view could alias
        else:
            np.add(out, identity, out=out)
        if self.activation == "relu":
            np.maximum(out, 0.0, out=out)
        return out


# ----------------------------------------------------------------------
# plan builder


def _flatten_layers(module: Layer) -> list[Layer]:
    """Primitive layers and Residuals of a module tree, execution order."""
    if isinstance(module, Sequential):
        flat: list[Layer] = []
        for child in module.layers:
            flat.extend(_flatten_layers(child))
        return flat
    return [module]


def _activation_of(layer: Layer) -> str | None:
    if isinstance(layer, ReLU):
        return "relu"
    if isinstance(layer, ReLU6):
        return "relu6"
    return None


def _foldable_bn(conv: Conv2d | DepthwiseConv2d, layer: Layer) -> BatchNorm2d | None:
    if not isinstance(layer, BatchNorm2d):
        return None
    channels = (
        conv.out_channels if isinstance(conv, Conv2d) else conv.channels
    )
    return layer if layer.channels == channels else None


def _build_steps(
    layers: list[Layer], in_shape: tuple[int, ...]
) -> tuple[list[_Step], tuple[int, ...]]:
    steps: list[_Step] = []
    shape = in_shape
    i = 0
    while i < len(layers):
        layer = layers[i]
        if isinstance(layer, Residual):
            body_steps, body_shape = _build_steps(
                _flatten_layers(layer.body), shape
            )
            shortcut_steps = None
            if layer.shortcut is not None:
                shortcut_steps, sc_shape = _build_steps(
                    _flatten_layers(layer.shortcut), shape
                )
                if sc_shape != body_shape:
                    raise ValueError(
                        f"residual shape mismatch: body {body_shape} "
                        f"vs shortcut {sc_shape}"
                    )
            steps.append(
                _ResidualStep(body_steps, shortcut_steps, layer.activation, body_shape)
            )
            shape = body_shape
            i += 1
        elif isinstance(layer, (Conv2d, DepthwiseConv2d)):
            consumed = 1
            bn = None
            if i + consumed < len(layers):
                bn = _foldable_bn(layer, layers[i + consumed])
                if bn is not None:
                    consumed += 1
            activation = None
            if i + consumed < len(layers):
                activation = _activation_of(layers[i + consumed])
                if activation is not None:
                    consumed += 1
            out_shape = layer.output_shape(shape)
            label = "+bn" if bn is not None else ""
            label += f"+{activation}" if activation else ""
            if isinstance(layer, Conv2d):
                if bn is not None:
                    weight, bias = fold_batch_norm(layer.weight, layer.bias, bn)
                else:
                    weight, bias = layer.weight, layer.bias
                steps.append(
                    _FusedConv(
                        weight,
                        bias,
                        layer.kernel,
                        layer.stride,
                        layer.padding,
                        activation,
                        shape,
                        out_shape,
                        f"conv{layer.kernel}x{layer.kernel}{label}",
                    )
                )
            else:
                if bn is not None:
                    weight, bias = fold_batch_norm(
                        layer.weight, None, bn, depthwise=True
                    )
                else:
                    weight, bias = layer.weight, None
                steps.append(
                    _FusedDepthwise(
                        weight,
                        bias,
                        layer.stride,
                        layer.padding,
                        activation,
                        shape,
                        out_shape,
                        f"dwconv{layer.kernel}x{layer.kernel}{label}",
                    )
                )
            shape = out_shape
            i += consumed
        elif isinstance(layer, BatchNorm2d):
            consumed = 1
            activation = None
            if i + consumed < len(layers):
                activation = _activation_of(layers[i + consumed])
                if activation is not None:
                    consumed += 1
            steps.append(_BatchNormAct(layer, activation, shape))
            i += consumed
        elif isinstance(layer, (ReLU, ReLU6)):
            steps.append(_Act(_activation_of(layer), shape))
            i += 1
        elif isinstance(layer, MaxPool2d):
            out_shape = layer.output_shape(shape)
            steps.append(_MaxPool(layer, shape, out_shape))
            shape = out_shape
            i += 1
        elif isinstance(layer, GlobalAvgPool):
            steps.append(_GlobalAvgPool(shape))
            shape = layer.output_shape(shape)
            i += 1
        elif isinstance(layer, Flatten):
            steps.append(_Flatten(shape))
            shape = layer.output_shape(shape)
            i += 1
        elif isinstance(layer, Linear):
            steps.append(_LinearStep(layer, shape))
            shape = layer.output_shape(shape)
            i += 1
        else:
            raise TypeError(f"compile_module has no step for {type(layer).__name__}")
    return steps, shape


def _iter_steps(steps: list[_Step]):
    for step in steps:
        yield step
        sub = getattr(step, "sub_plans", None)
        if sub is not None:
            for plan in sub():
                yield from _iter_steps(plan)


def _walk(steps: list[_Step], src, spans: dict, tick: int) -> tuple[object, int]:
    """Follow ``steps`` in execution order from the buffer ``src`` their
    input is in (``None``: memory the plan does not own), one tick per
    step run or residual merge, recording in ``spans`` each buffer's
    ``[tick written, last tick read]``.  Returns the buffer the chain's
    output is in and the chain's last tick.

    A residual runs its shortcut, then its body, then the merge, which
    reads both branch outputs; the fp32 merge writes in place into the
    body's last buffer.  A step that binds no output (``_Flatten``) hands
    on its input as a view, so the input stays live with the result.
    """
    for step in steps:
        if getattr(step, "sub_plans", None) is not None:
            identity = src
            if step.shortcut:
                identity, tick = _walk(step.shortcut, src, spans, tick)
            out, tick = _walk(step.body, src, spans, tick)
            reads = (identity, out)
        else:
            out = src
            reads = (src,)
        tick += 1
        for key in reads:
            if key is not None:
                spans[key][1] = tick
        if step.padding:
            spans[step, "pad"] = [tick, tick]
        if step.out_dtype is not None:
            out = (step, "out")
            spans[out] = [tick, tick]
        src = out
    return src, tick


def _lifetimes(steps: list[_Step]) -> dict[tuple, list[int]]:
    """``{(step, "out" | "pad"): [first tick, last tick]}`` of a plan's
    buffers; the plan's output stays live after its last step, until
    ``forward`` has copied it out."""
    spans: dict[tuple, list[int]] = {}
    out, tick = _walk(steps, None, spans, 0)
    if out is not None:
        spans[out][1] = tick + 1
    return spans


def _pack(buffers: list[tuple[int, int, int]]) -> list[int]:
    """First-fit offsets for ``(nbytes, first tick, last tick)`` buffers.

    In order of first use (the larger first on a tie), each goes to the
    lowest offset clear of every buffer already placed whose lifetime
    meets its own, so buffers that are never live at once share bytes.
    """
    offsets = [0] * len(buffers)
    placed: list[int] = []
    order = sorted(range(len(buffers)), key=lambda i: (buffers[i][1], -buffers[i][0]))
    for i in order:
        size, first, last = buffers[i]
        live = sorted(
            (offsets[j], offsets[j] + buffers[j][0])
            for j in placed
            if buffers[j][1] <= last and first <= buffers[j][2]
        )
        offset = 0
        for start, end in live:
            if offset + size <= start:
                break
            offset = max(offset, end)
        offsets[i] = offset
        placed.append(i)
    return offsets


class CompiledModule(Layer):
    """A fused, buffer-reusing execution plan of a ``Layer``.

    ``output_shape`` / ``flops`` / ``parameters`` delegate to the source
    module, so profiling arithmetic is unchanged; ``forward`` runs the
    plan.  Compile once per (module, input shape).  The plan holds
    weights only: the first ``forward`` at a tile size (at most ``_TILE``
    samples) on a thread *binds* it — lays its buffers out in that
    thread's arena — and later calls reuse the binding, so concurrent
    ``forward`` calls from different threads never share a mutable
    buffer.
    """

    kind = "compiled"
    #: numeric format of the plan's compute steps ("int8" on the
    #: quantized subclass) — cache keys in serving key on this
    precision = "fp32"

    def __init__(self, source: Layer, input_shape: tuple[int, ...]) -> None:
        self.source = source
        self.input_shape = tuple(int(s) for s in input_shape)
        #: per-sample shape of the plan's output
        self.steps, self.out_shape = _build_steps(
            _flatten_layers(source), self.input_shape
        )

    def _bind(self, arena: _Arena, n: int) -> _Binding:
        """Lay the plan out in ``arena`` for a batch of ``n``.

        The shared gather and temp scratch sit at the base (sized by the
        neediest step).  Behind them every step output and pad buffer is
        packed by its lifetime in the plan's data flow (:func:`_lifetimes`,
        :func:`_pack`), so the binding is as large as what the plan holds
        live at once.
        """
        steps = list(_iter_steps(self.steps))
        needs = [step.bind(n) for step in steps]
        scratch = [
            ((max((need[i] for need in needs), default=0),), np.float32)
            for i in (0, 1)
        ]
        spans = _lifetimes(self.steps)
        specs = [
            (_batch_shape(step.out_shape, n, step.out_dtype), step.out_dtype)
            if role == "out"
            else (_pad_shape(step, n), step.in_dtype)
            for step, role in spans
        ]
        cols_bytes, tmp_bytes = (_aligned(_nbytes(*spec)) for spec in scratch)
        base = cols_bytes + tmp_bytes
        sizes = [_aligned(_nbytes(*spec)) for spec in specs]
        packed = _pack([(size, *span) for size, span in zip(sizes, spans.values())])
        offsets = [base + offset for offset in packed]
        arena.reserve(max((o + s for o, s in zip(offsets, sizes)), default=base))
        binding = _Binding(
            arena.view(0, *scratch[0]), arena.view(cols_bytes, *scratch[1])
        )
        views = {
            key: arena.view(offset, *spec)
            for key, offset, spec in zip(spans, offsets, specs)
        }
        for step, (_, _, token) in zip(steps, needs):
            pad = views.get((step, "pad"))
            interior = None if pad is None else _interior(pad, step)
            binding.bufs[step] = (interior, pad, views.get((step, "out")), token)
        return binding

    def _binding(self, n: int) -> _Binding:
        """This thread's binding for a batch of ``n``, bound on first use."""
        arena = _thread_arena()
        try:
            return arena.bound[self][n]
        except KeyError:
            binding = self._bind(arena, n)  # may grow the arena: bound is reset
            arena.bound.setdefault(self, {})[n] = binding
            return binding

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the plan on a batch, ``_TILE`` samples at a time.

        A batch of at most ``_TILE`` runs whole on the binding of its
        size.  A larger one runs as consecutive tiles of ``_TILE``
        samples, the last one the remainder, each on the binding of its
        own size (12 = 8 + 4: the bindings at 8 and at 4), and each
        tile's output is copied into one preallocated result.  Every step
        treats samples independently, so a tile's output is the whole
        batch's wherever both bind the same kernels (every fp32 step;
        an int8 conv whose scheme at the tile size is the whole batch's).
        """
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(
                f"compiled for input shape {self.input_shape}, "
                f"got {tuple(x.shape[1:])}"
            )
        x = np.ascontiguousarray(x, dtype=np.float32)
        n = x.shape[0]
        # the arena is rewritten by the next call — callers own the result
        out = np.empty((n, *self.out_shape), dtype=np.float32)
        # the tracer predicate is hoisted out of the step loop so the
        # disabled path pays one thread-local read per forward, not one
        # per plan step
        tracer = current_tracer()
        for lo in range(0, n, _TILE):
            tile = x[lo : lo + _TILE]
            binding = self._binding(tile.shape[0])
            if tracer.enabled:
                for step in self.steps:
                    with tracer.span(
                        f"plan.{step.label}", cat="engine", track="engine"
                    ):
                        tile = step.run(tile, binding)
            else:
                for step in self.steps:
                    tile = step.run(tile, binding)
            out[lo : lo + _TILE] = tile
        return out

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return self.source.output_shape(input_shape)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return self.source.flops(input_shape)

    def activation_size(self, input_shape: tuple[int, ...]) -> int:
        return self.source.activation_size(input_shape)

    def parameters(self) -> list[np.ndarray]:
        return self.source.parameters()


def compile_module(
    module,
    input_shape: tuple[int, ...] | None = None,
    quantize: str | None = None,
    calibration: np.ndarray | None = None,
) -> CompiledModule:
    """Compile a module tree (or a ``BlockwiseModel``) into a fused plan.

    ``input_shape`` is the per-sample shape, e.g. ``(3, 32, 32)``; it is
    optional for :class:`~repro.dnn.resnet.BlockwiseModel`, whose own
    ``input_shape`` is used.  The plan specializes on this shape (buffer
    sizes, fused layouts) but accepts any batch size.

    ``quantize="int8"`` emits a
    :class:`~repro.dnn.quantize.QuantizedModule` instead: int8 weights
    with per-channel scales, calibrated activation scales (min/max over
    ``calibration``, a seeded synthetic batch by default) and fused
    requantization — same fp32 in/out contract.
    """
    source = module
    if not isinstance(module, Layer):
        inner = getattr(module, "_as_sequential", None)
        if inner is None:
            raise TypeError(
                f"cannot compile {type(module).__name__}: expected a Layer "
                "or a BlockwiseModel"
            )
        source = inner
        if input_shape is None:
            input_shape = tuple(module.input_shape)
    if input_shape is None:
        raise ValueError("input_shape is required to compile a Layer")
    if quantize is None:
        if calibration is not None:
            raise ValueError("calibration is only meaningful with quantize")
        return CompiledModule(source, tuple(input_shape))
    if quantize != "int8":
        raise ValueError(f"unsupported quantize mode: {quantize!r}")
    from repro.dnn.quantize import QuantizedModule

    return QuantizedModule(source, tuple(input_shape), calibration=calibration)

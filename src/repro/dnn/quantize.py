"""Int8 quantized execution plans for the compiled engine.

Builds on :mod:`repro.dnn.compile`: the fp32 plan is compiled first
(BN folding, fusion, shape propagation all reused), a calibration batch
is pushed through it to record per-step activation ranges, and the
longest quantizable prefix of the plan is then rewritten into int8
steps.  The result — :class:`QuantizedModule` — is a drop-in
``CompiledModule``: fp32 in, fp32 out, int8 inside.

Quantization scheme
-------------------

* **Weights** — per-output-channel symmetric: ``scale[o] =
  amax(|W[o]|) / 127`` (all-zero channels get scale 1.0), stored as
  int8 alongside the float32 scale vector.  Folded BN is quantized
  *after* folding, so the int8 weights already absorb the BN scale.
* **Activations** — per-tensor symmetric, calibrated: ``scale =
  amax(|x|) / 127`` over the calibration batch run through the fp32
  plan.  Between quantized steps activations stay int8 in a
  channel-spatial-major ``(C, H, N, W)`` layout (see below).
* **Requantization** — each conv computes the integer-valued GEMM in
  float32 (this host's BLAS has no int8 SIMD kernels; fp32 accumulation
  of integer operands is exact up to |acc| < 2^24, far above any
  127*127*C*K*K reachable here), then applies one fused
  multiply-by-``r``/clip/cast pass where ``r[o] = w_scale[o] * s_in /
  s_out``.  For ReLU steps the rounding is folded into the bias as a
  ``+0.5`` offset so the truncating int8 cast *is* round-to-nearest on
  the non-negative clipped range — no separate rounding pass.

Where the speed comes from
--------------------------

The fp32 sgemm already runs at machine peak, so int8 cannot reduce the
GEMM's arithmetic cost; the wins are layout and fusion co-design:

* **Collapsed GEMMs per conv** — channel-major activations make the
  batch axis part of the GEMM's N dimension, so a conv is one (or, on
  the stride-1 path, K accumulated) ``(C_out, *) @ (*, OH*N*OW)``
  sgemm over the whole batch instead of the fp32 plan's N small
  per-sample GEMMs.  For deep layers (large C, small H*W) the
  per-sample GEMMs are too skinny for BLAS to block well and
  collapsing them is worth 1.3-1.6x.
* **K-tap gather for stride-1 convs** — the ``(C, H, N, W)`` layout
  lets a stride-1 KxK conv gather only the K *width* taps; the K
  height taps become height-shifted strided views of the gathered
  buffer, fed to K accumulated GEMMs (BLAS consumes the row stride as
  lda at full speed).  3x less gather traffic than K*K-tap im2col —
  this is what rescues the gather-bound early/pruned layers.
* **Bias as a GEMM row** — the gathered matrix gets one constant
  ``1.0`` row and the weight matrix one extra column holding
  ``(b/s_out + 0.5)/r``, so bias add (and ReLU rounding) ride along
  with the GEMM.
* **Fused cast-gather** — the int8->f32 cast happens inside the
  gather (``np.copyto`` with dtype conversion), reading 1 byte where
  the fp32 gather reads 4.
* **Int8 memory traffic** — activations, pad buffers and weights move
  4x fewer bytes between steps.

* **Scheme by (shape, batch size)** — a conv picks its gather/GEMM
  strategy when the plan binds to a batch size, which is at most one
  tile of ``compile._TILE`` samples (:func:`_conv_scheme`): Winograd's
  tile GEMMs have ``tiles * N`` columns, so it is bound only where the
  batch makes them fat enough and the direct schemes serve batch 1.

Implementation note: because the GEMM runs on BLAS, each quantized step
keeps an integer-valued *float32 shadow* of its int8 weights, laid out
per scheme the first time the step binds to it.  The int8 tensors are
the deployment artifact (and what :func:`plan_param_bytes` / the
repository's memory accounting count); the shadows are an emulation
cost of this numpy substrate, not of int8 inference in general.
"""

from __future__ import annotations

import numpy as np

from repro.dnn.compile import (
    _TILE,
    CompiledModule,
    _Arena,
    _Binding,
    _FusedConv,
    _FusedDepthwise,
    _LinearStep,
    _MaxPool,
    _ResidualStep,
    _Step,
    _iter_steps,
    _max_pool,
)

__all__ = [
    "QMAX",
    "weight_scales",
    "quantize_per_channel",
    "activation_scale",
    "default_calibration_batch",
    "plan_param_bytes",
    "QuantizedModule",
]

#: symmetric int8 range [-QMAX, QMAX]; -128 is never produced
QMAX = 127

#: clip ceiling that truncates to exactly QMAX after the +0.5 fold
_HI = np.float32(127.49997)


# ----------------------------------------------------------------------
# pure quantization primitives (float64 internal math)


def weight_scales(weight: np.ndarray, axis: int = 0) -> np.ndarray:
    """Per-channel symmetric scales along ``axis``: ``amax/127``.

    All-zero channels get scale 1.0 so quantization is well defined
    (their int8 values are exactly 0 either way).
    """
    w = np.asarray(weight, dtype=np.float64)
    reduce_axes = tuple(i for i in range(w.ndim) if i != axis)
    amax = np.max(np.abs(w), axis=reduce_axes) if reduce_axes else np.abs(w)
    scales = amax / QMAX
    return np.where(amax > 0.0, scales, 1.0)


def _expand(scales: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = -1
    return np.asarray(scales, dtype=np.float64).reshape(shape)


def quantize_per_channel(
    weight: np.ndarray, scales: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Symmetric int8 quantization with per-channel ``scales``."""
    w = np.asarray(weight, dtype=np.float64)
    q = np.rint(w / _expand(scales, w.ndim, axis))
    np.clip(q, -QMAX, QMAX, out=q)
    return q.astype(np.int8)


def activation_scale(x: np.ndarray) -> float:
    """Per-tensor symmetric scale for an activation: ``amax/127``.

    An all-zero (or empty) tensor gets scale 1.0.
    """
    amax = float(np.max(np.abs(x))) if x.size else 0.0
    return amax / QMAX if amax > 0.0 else 1.0


def default_calibration_batch(
    input_shape: tuple[int, ...], n: int = 8, seed: int = 0
) -> np.ndarray:
    """Deterministic standard-normal calibration batch.

    Real deployments calibrate on held-out data; the substrate's models
    are randomly initialized, so a seeded N(0,1) batch is the matching
    input distribution (He-init keeps activation variance stable).
    """
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *input_shape)).astype(np.float32)


# ----------------------------------------------------------------------
# quantized plan steps
#
# Internal activation format: int8, channel-spatial-major (C, H, N, W)
# for 4-D activations, (N, F) for 2-D.  Every step records the
# per-tensor scale of its int8 output in ``out_scale``.
#
# Why (C, H, N, W): a conv GEMM over this layout emits its output with
# columns ordered (OH, N, OW) — already the next layer's layout — and a
# stride-1 KxK conv needs only K *width* gather taps: the K height taps
# become free strided views of the gathered buffer, consumed by K
# accumulated GEMMs (BLAS takes the row stride as lda, no copy).  That
# cuts im2col traffic 3x for 3x3 convs, which is what dominates the
# early / heavily-pruned layers where the GEMM itself is tiny.


def _requant_params(
    activation: str | None, out_scale: float
) -> tuple[float, np.float32, np.float32]:
    """(half, lo, hi) of the fused requant clip for one step."""
    if activation == "relu":
        return 0.5, np.float32(0.0), _HI
    if activation == "relu6":
        q6 = min(float(QMAX), float(np.rint(6.0 / out_scale)))
        return 0.5, np.float32(0.0), np.float32(q6 + 0.49997)
    return 0.0, np.float32(-QMAX), np.float32(QMAX)


class _QStep(_Step):
    """Base for quantized steps: int8 in/out, channel-major."""

    out_dtype = np.int8
    in_dtype = np.int8
    in_scale = 1.0
    out_scale = 1.0

    def param_nbytes(self) -> int:
        return 0


class _QuantizeStep(_QStep):
    """Plan entry: fp32 (N, C, H, W) -> int8 (C, H, N, W)."""

    label = "int8.quantize"

    def __init__(self, shape: tuple[int, ...], scale: float) -> None:
        self.out_shape = shape
        self.in_scale = self.out_scale = float(scale)
        self._inv = np.float32(1.0 / scale)
        self.tmp_elems = int(np.prod(shape))

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        acc = b.tmp[: out.size].reshape(out.shape)
        src = x.transpose(1, 2, 0, 3) if len(self.out_shape) == 3 else x
        np.multiply(src, self._inv, out=acc)
        np.rint(acc, out=acc)
        np.clip(acc, -QMAX, QMAX, out=acc)
        np.copyto(out, acc, casting="unsafe")
        return out


class _DequantizeStep(_QStep):
    """Plan exit: int8 (C, H, N, W) -> fp32 (N, C, H, W), one fused pass."""

    label = "int8.dequantize"
    out_dtype = np.float32

    def __init__(self, shape: tuple[int, ...], scale: float) -> None:
        self.out_shape = shape
        self.in_scale = self.out_scale = float(scale)
        self._scale = np.float32(scale)

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        src = x.transpose(2, 0, 1, 3) if len(self.out_shape) == 3 else x
        return np.multiply(src, self._scale, out=out)


#: transform-GEMM columns (channels x tiles x batch) from which F(m, 3)
#: beats the direct schemes — see the table in :func:`_conv_scheme`
_WINO_MIN_COLS = {4: 4096, 2: 16384}


def _conv_scheme(
    c: int, c_out: int, k: int, s: int, oh: int, ow: int, n: int
) -> str:
    """Pick the gather/GEMM strategy for an int8 conv from (shape, batch).

    Deterministic, so a plan is a function of (model, input, batch size).
    Schemes bind per tile: a forward binds at most ``_TILE`` (8) samples,
    so ``n`` here is a tile size, and the n = 16 / 32 columns of the
    table below are what a whole batch would bind, not what a forward
    does (``QuantizedModule.conv_schemes``).

    * ``im2col`` — K*K-tap gather + one GEMM.  Wins when C_in is small
      (the gather is cheap and one well-blocked GEMM beats several) and
      is the only option for strided K>1 convs.
    * ``kw`` — K width-taps gathered, K height taps as strided views
      fed to K accumulated GEMMs.  3x less gather traffic; the general
      stride-1 fallback.
    * ``tap`` — no gather at all: K*K shifted *flat views* of the
      padded (C, Hp, N, Wp) buffer, one (C_out, C) GEMM each, trading
      ~(Wp/W) overcompute for zero im2col traffic and a cache-resident
      GEMM operand.  Wins for the narrow-bottleneck convs interior
      pruning creates (C_out << C_in).
    * ``wino4`` / ``wino2`` — Winograd F(4x4,3x3) / F(2x2,3x3): a real
      FLOP reduction (4x / 2.25x fewer multiplies), the only lever on
      the square convs whose direct GEMM already runs at machine peak.
      Both tile transforms are expressed as single GEMMs over the tap
      axis, so the whole conv is BLAS end to end — r^2 = 36 / 16 tile
      GEMMs ``(C_out, C) @ (C, T)`` between two transform GEMMs with
      ``C * T`` columns, ``T = tiles per sample * n``.  Those go skinny
      at small batches, so Winograd is bound only from 64 channels and
      from ``_WINO_MIN_COLS`` transform columns up.

    Where the thresholds come from: each ResNet-18 block (32 px input)
    as an int8 plan, bound once with ``_WINO_MIN_COLS`` at 0 and once
    out of reach (the 32-channel row with the channel floor lifted) —
    time with Winograd on its stride-1 3x3 convs over time with
    ``kw``/``im2col`` on them, per batch size (< 1: Winograd wins; min
    of 21-31 interleaved forwards; 2-vCPU Xeon @ 2.1 GHz, numpy 2.4.6
    on OpenBLAS 0.3.31 Haswell kernels, one BLAS thread)::

        block   C    out    F(m,3)  C*T      n=1   2     4     8     16    32
        w32 l1  32   32x32  4       2048 n   1.38  1.19  0.93  0.76  0.92  1.00
        w32 l2  64   16x16  4       1024 n   1.36  1.16  0.80  0.82  0.88  0.75
        w32 l3  128  8x8    4        512 n   1.43  1.22  1.01  0.85  0.76  0.73
        w32 l4  256  4x4    2       1024 n   1.09  1.14  1.13  1.02  0.93  0.90
        w64 l1  64   32x32  4       4096 n   0.89  0.71  0.76  0.75  0.78  0.84
        w64 l2  128  16x16  4       2048 n   1.06  0.83  0.96  0.70  0.67  0.69
        w64 l3  256  8x8    4       1024 n   1.34  1.22  1.00  0.88  0.60  0.71
        w64 l4  512  4x4    2       2048 n   1.59  1.35  1.07  0.97  0.82  0.68

    From 64 channels up F(4,3) first wins where ``C * T`` reaches 4096
    and F(2,3) at 16384; the 32-channel row never settles below 1
    (0.76-1.12 over three such runs at n >= 4), hence the channel floor.
    """
    if k == 1:
        return "direct"
    if s != 1:
        return "im2col"
    if c <= 32 and c_out >= 2 * c:
        return "im2col"
    if 4 * c_out <= c and oh >= 8:
        return "tap"
    if k == 3 and min(c, c_out) >= 64:
        m = 0
        if oh % 4 == 0 and ow % 4 == 0 and min(oh, ow) >= 8:
            m = 4
        # At tiny tile counts the r^2 transform GEMMs go skinny; F(2,3)
        # only pays off when both channel dims keep the GEMMs fat.
        elif oh % 2 == 0 and ow % 2 == 0 and min(oh, ow) >= 4 and min(c, c_out) >= 128:
            m = 2
        if m and min(c, c_out) * (oh // m) * (ow // m) * n >= _WINO_MIN_COLS[m]:
            return f"wino{m}"
    return "kw"


# Winograd F(m x m, 3 x 3) transform matrices.  The m=2 set is exact in
# f32 on integer-valued operands; the m=4 set has 1/6-style entries
# whose relative error (~5e-6, <0.001 requant LSB) is negligible
# against the int8 quantization noise, and is bit-deterministic.
_WINO_BT = {
    2: np.array(
        [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]],
        dtype=np.float64,
    ),
    4: np.array(
        [
            [4, 0, -5, 0, 1, 0],
            [0, -4, -4, 1, 1, 0],
            [0, 4, -4, -1, 1, 0],
            [0, -2, -1, 2, 1, 0],
            [0, 2, -1, -2, 1, 0],
            [0, 4, 0, -5, 0, 1],
        ],
        dtype=np.float64,
    ),
}
_WINO_AT = {
    2: np.array([[1, 1, 1, 0], [0, 1, -1, -1]], dtype=np.float64),
    4: np.array(
        [
            [1, 1, 1, 1, 1, 0],
            [0, 1, -1, 2, -2, 0],
            [0, 1, 1, 4, 4, 0],
            [0, 1, -1, 8, -8, 1],
        ],
        dtype=np.float64,
    ),
}
_WINO_G = {
    2: np.array(
        [[1, 0, 0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0, 0, 1]],
        dtype=np.float64,
    ),
    4: np.array(
        [
            [1 / 4, 0, 0],
            [-1 / 6, -1 / 6, -1 / 6],
            [-1 / 6, 1 / 6, -1 / 6],
            [1 / 24, 1 / 12, 1 / 6],
            [1 / 24, -1 / 12, 1 / 6],
            [0, 0, 1],
        ],
        dtype=np.float64,
    ),
}


class _QuantConv(_QStep):
    """int8 conv (+ folded BN bias) + fused requant/activation clip.

    Collapsed sgemm(s) over the whole tile.  The gather/GEMM strategy is
    chosen by :func:`_conv_scheme` when the step binds to a batch size,
    and the float32 GEMM operands of a scheme are laid out the first
    time the step binds to it (``_laid``).  For the gathered schemes the
    last gathered row/plane is constant 1.0 and the matching extra
    weight column carries ``(bias/s_out + half)/r``, so bias add and ReLU
    rounding ride along with the (first) GEMM; the gather-free ``tap``
    scheme and Winograd add the bias in the requant pass.

    **Winograd F(m x m, 3 x 3), m in {2, 4}.**  The square convs that
    dominate unpruned ResNet stages are compute bound — their direct
    GEMM already runs at machine peak, so no data layout can speed them
    up.  Winograd is the remaining lever: F(2,3) does 2.25x and F(4,3)
    4x fewer multiplies per output.  Everything is staged as GEMMs so
    BLAS does all the work:

    1. gather r^2 = (m+2)^2 shifted tile taps ``D (r^2, C*T)`` from the
       padded int8 input (T = tiles_h * N * tiles_w), casting once;
    2. input transform = ONE GEMM ``V = (B^T (x) B^T) @ D`` using the
       precomputed Kronecker matrix ``B2 (r^2, r^2)``;
    3. r^2 per-tap GEMMs ``M[q] = U[q] (C_out, C) @ V[q] (C, T)``;
    4. output transform = ONE GEMM ``Y = (A^T (x) A^T) @ M``;
    5. fused requant (+bias, +ReLU clip) on Y, then m^2 strided int8
       scatters into the channel-major output.

    Transformed weights ``U`` are computed in f64 from the *quantized*
    int8 weights, so the result matches direct int8 convolution up to
    f32 transform rounding (measured < 1e-3 of one requant LSB for
    F(4,3); F(2,3) is exact on integer data).  Deterministic.
    """

    def __init__(self, src: _FusedConv, in_scale: float, out_scale: float) -> None:
        c_out = src.w_mat.shape[0]
        self.w_scales = weight_scales(src.w_mat, axis=0)
        self.w8 = quantize_per_channel(src.w_mat, self.w_scales, axis=0)
        self.in_scale = float(in_scale)
        self.out_scale = float(out_scale)
        r64 = self.w_scales * (self.in_scale / self.out_scale)
        self.r = r64.astype(np.float32).reshape(-1, 1)
        half, self.lo, self.hi = _requant_params(src.activation, self.out_scale)
        self.rounded = half > 0.0  # +0.5 fold replaces the rint pass
        bias = np.zeros(c_out) if src.bias is None else src.bias.astype(np.float64)
        self.bias_col = ((bias / self.out_scale + half) / r64).astype(np.float32)
        self.bias_add = ((bias / self.out_scale) + half).astype(
            np.float32
        ).reshape(-1, 1)
        self.kernel, self.stride, self.padding = src.kernel, src.stride, src.padding
        self.in_shape = src.in_shape
        self.out_shape = src.out_shape
        self.label = f"int8.{src.label}"
        #: scheme -> (cols elems, tmp elems, GEMM operands), per sample
        self._laid: dict[str, tuple] = {}

    def param_nbytes(self) -> int:
        # int8 weights + f32 per-channel scales + f32 bias column
        return self.w8.nbytes + 2 * 4 * self.w8.shape[0]

    def scheme(self, n: int) -> str:
        """The strategy this conv binds to for a batch of ``n``."""
        return _conv_scheme(
            self.in_shape[0], self.out_shape[0], self.kernel, self.stride,
            self.out_shape[1], self.out_shape[2], n,
        )

    def bind(self, n: int) -> tuple[int, int, object]:
        scheme = self.scheme(n)
        laid = self._laid.get(scheme)
        if laid is None:
            laid = self._laid[scheme] = self._lay_out(scheme)
        cols, tmp, operands = laid
        return n * cols, n * tmp, (scheme, operands)

    def _lay_out(self, scheme: str) -> tuple:
        """``(cols elems, tmp elems, GEMM operands)`` of ``scheme``, per sample."""
        c_out, kd = self.w8.shape
        c, h, w = self.in_shape
        k = self.kernel
        oh, ow = self.out_shape[1], self.out_shape[2]
        hp, wp = h + 2 * self.padding, w + 2 * self.padding
        if scheme == "kw":
            # per-height-tap weight slices: w_mat columns are (c, i, j)
            # ordered; GEMM i needs the (c, j) block in c*K + j order.
            w4 = self.w8.astype(np.float32).reshape(c_out, c, k, k)
            first = w4[:, :, 0, :].reshape(c_out, c * k)
            wf0 = np.ascontiguousarray(
                np.concatenate([first, self.bias_col.reshape(-1, 1)], axis=1)
            )
            w_rest = [
                np.ascontiguousarray(w4[:, :, i, :].reshape(c_out, c * k))
                for i in range(1, k)
            ]
            # tmp: acc + GEMM partner
            return (c * k + 1) * hp * ow, 2 * c_out * oh * ow, (wf0, w_rest)
        if scheme == "tap":
            w4 = self.w8.astype(np.float32).reshape(c_out, c, k, k)
            w_taps = [
                np.ascontiguousarray(w4[:, :, i, j])
                for i in range(k)
                for j in range(k)
            ]
            return c * hp * wp, 2 * c_out * oh * wp, w_taps
        if scheme.startswith("wino"):
            m = int(scheme[4:])
            rr = (m + 2) ** 2
            # Kronecker transform matrices: tile transforms become one
            # GEMM over the flattened (r^2 | m^2) tap axis.
            bt, at, g = _WINO_BT[m], _WINO_AT[m], _WINO_G[m]
            b2 = np.kron(bt, bt).astype(np.float32)
            a2 = np.kron(at, at).astype(np.float32)
            w4 = self.w8.astype(np.float64).reshape(c_out, c, 3, 3)
            u = np.einsum("ai,ocij,bj->aboc", g, w4, g).reshape(rr, c_out, c)
            u_taps = [np.ascontiguousarray(u[q].astype(np.float32)) for q in range(rr)]
            tiles = (oh // m) * (ow // m)
            # cols: D + V; tmp: M + Y
            return 2 * rr * c * tiles, (rr + m * m) * c_out * tiles, (m, b2, a2, u_taps)
        wf = np.empty((c_out, kd + 1), dtype=np.float32)
        wf[:, :kd] = self.w8
        wf[:, kd] = self.bias_col
        return (kd + 1) * oh * ow, c_out * oh * ow, wf

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, (scheme, operands) = b.enter(self, x)
        if scheme.startswith("wino"):
            return self._run_wino(x, out, b, *operands)
        n = x.shape[2]
        c = self.in_shape[0]
        c_out = self.out_shape[0]
        oh, ow = self.out_shape[1], self.out_shape[2]
        np_out = oh * n * ow
        k, s = self.kernel, self.stride
        if scheme == "kw":
            wf0, w_rest = operands
            hp = x.shape[1]
            ck = c * k
            acc = b.tmp[: c_out * np_out].reshape(c_out, np_out)
            colsw = b.cols[: (ck + 1) * hp * n * ow].reshape(ck + 1, hp, n * ow)
            cw = colsw[:ck].reshape(c, k, hp, n, ow)
            for j in range(k):
                np.copyto(cw[:, j], x[:, :, :, j : j + ow])
            colsw[ck].fill(1.0)
            # K height taps = K strided views of the gathered buffer,
            # one accumulated GEMM each; tap 0 carries bias + ones row.
            a0 = colsw[:, :oh, :].reshape(ck + 1, np_out)
            np.matmul(wf0, a0, out=acc)
            part = b.tmp[c_out * np_out : 2 * c_out * np_out].reshape(
                c_out, np_out
            )
            for i in range(1, k):
                ai = colsw[:ck, i : i + oh, :].reshape(ck, np_out)
                np.matmul(w_rest[i - 1], ai, out=part)
                np.add(acc, part, out=acc)
        elif scheme == "tap":
            hp, wp = x.shape[1], x.shape[3]
            tot = hp * n * wp
            span = (oh * n - 1) * wp + ow  # flat cols covering the output
            xf = b.cols[: c * tot].reshape(c, tot)
            np.copyto(xf.reshape(x.shape), x)
            acc = b.tmp[: c_out * span].reshape(c_out, span)
            part = b.tmp[c_out * span : 2 * c_out * span].reshape(c_out, span)
            # K*K shifted flat views of the SAME cache-resident buffer;
            # off-image columns are overcomputed garbage, masked by the
            # strided output extraction below.
            np.matmul(operands[0], xf[:, :span], out=acc)
            tap = 1
            for i in range(k):
                for j in range(k):
                    if i == 0 and j == 0:
                        continue
                    off = i * n * wp + j
                    np.matmul(operands[tap], xf[:, off : off + span], out=part)
                    np.add(acc, part, out=acc)
                    tap += 1
            np.multiply(acc, self.r, out=acc)
            np.add(acc, self.bias_add, out=acc)
            if not self.rounded:
                np.rint(acc, out=acc)
            np.clip(acc, self.lo, self.hi, out=acc)
            valid = np.lib.stride_tricks.as_strided(
                acc,
                shape=(c_out, oh, n, ow),
                strides=(acc.strides[0], n * wp * 4, wp * 4, 4),
            )
            np.copyto(out, valid, casting="unsafe")
            return out
        else:
            kd = self.w8.shape[1]
            acc = b.tmp[: c_out * np_out].reshape(c_out, np_out)
            cols = b.cols[: (kd + 1) * np_out].reshape(kd + 1, np_out)
            if k == 1 and s == 1:
                np.copyto(cols[:kd], x.reshape(c, np_out))
            elif k == 1:
                view = x[:, ::s, :, ::s][:, :oh, :, :ow]
                np.copyto(cols[:kd].reshape(c, oh, n, ow), view)
            else:
                c3 = cols[:kd].reshape(c, k * k, oh, n, ow)
                tap = 0
                for i in range(k):
                    rows = slice(i, i + s * (oh - 1) + 1, s)
                    for j in range(k):
                        cc = slice(j, j + s * (ow - 1) + 1, s)
                        np.copyto(c3[:, tap], x[:, rows, :, cc])
                        tap += 1
            cols[kd].fill(1.0)
            np.matmul(operands, cols, out=acc)
        np.multiply(acc, self.r, out=acc)
        if not self.rounded:
            np.rint(acc, out=acc)
        np.clip(acc, self.lo, self.hi, out=acc)
        np.copyto(out.reshape(c_out, np_out), acc, casting="unsafe")
        return out

    def _run_wino(
        self, x: np.ndarray, out: np.ndarray, b: _Binding,
        m: int, b2: np.ndarray, a2: np.ndarray, u_taps: list[np.ndarray],
    ) -> np.ndarray:
        n = x.shape[2]
        c = self.in_shape[0]
        c_out = self.out_shape[0]
        r = m + 2
        rr = r * r
        th, tw = self.out_shape[1] // m, self.out_shape[2] // m
        t = th * n * tw
        dv = b.cols[: 2 * rr * c * t].reshape(2, rr, c * t)
        d, v = dv[0], dv[1]
        dr = d.reshape(r, r, c, th, n, tw)
        # r^2 shifted tile taps; the strided int8 -> f32 copy is the
        # only gather in the whole conv.
        for i in range(r):
            for j in range(r):
                np.copyto(dr[i, j], x[:, i : i + m * th : m, :, j : j + m * tw : m])
        np.matmul(b2, d, out=v)  # input transform, one GEMM
        vv = v.reshape(rr, c, t)
        mm = b.tmp[: rr * c_out * t].reshape(rr, c_out, t)
        for q in range(rr):  # the 4x-fewer-FLOPs GEMMs
            np.matmul(u_taps[q], vv[q], out=mm[q])
        y = b.tmp[rr * c_out * t : (rr + m * m) * c_out * t].reshape(
            m * m, c_out * t
        )
        np.matmul(a2, mm.reshape(rr, c_out * t), out=y)  # output transform
        yv = y.reshape(m * m, c_out, t)
        np.multiply(yv, self.r, out=yv)
        np.add(yv, self.bias_add, out=yv)
        if not self.rounded:
            np.rint(yv, out=yv)
        np.clip(yv, self.lo, self.hi, out=yv)
        # scatter the m x m intra-tile positions back to channel-major
        ov = out.reshape(c_out, th, m, n, tw, m)
        y6 = yv.reshape(m, m, c_out, th, n, tw)
        for i in range(m):
            for j in range(m):
                np.copyto(ov[:, :, i, :, :, j], y6[i, j], casting="unsafe")
        return out


class _QuantDepthwise(_QStep):
    """int8 depthwise conv + fused requant, batched over channels.

    Channel-major layout turns the depthwise conv into ONE batched GEMM
    ``(C, 1, K*K+1) @ (C, K*K+1, N*OH*OW)`` over the whole batch — the
    fp32 plan loops per sample.  Bias rides along as a constant row per
    channel, exactly like :class:`_QuantConv`.
    """

    def __init__(
        self, src: _FusedDepthwise, in_scale: float, out_scale: float
    ) -> None:
        c = src.w_mat.shape[0]
        kk = src.w_mat.shape[2]
        flat = src.w_mat.reshape(c, kk)
        self.w_scales = weight_scales(flat, axis=0)
        self.w8 = quantize_per_channel(flat, self.w_scales, axis=0)
        self.in_scale = float(in_scale)
        self.out_scale = float(out_scale)
        r64 = self.w_scales * (self.in_scale / self.out_scale)
        self.r = r64.astype(np.float32).reshape(c, 1, 1)
        half, self.lo, self.hi = _requant_params(src.activation, self.out_scale)
        self.rounded = half > 0.0
        bias = np.zeros(c) if src.bias is None else src.bias.astype(np.float64)
        wf = np.empty((c, 1, kk + 1), dtype=np.float32)
        wf[:, 0, :kk] = self.w8
        wf[:, 0, kk] = ((bias / self.out_scale + half) / r64).astype(np.float32)
        self.wf = wf
        self.kk = kk
        self.kernel = src.kernel
        self.stride = src.stride
        self.padding = src.padding
        self.in_shape = src.in_shape
        self.out_shape = src.out_shape
        self.label = f"int8.{src.label}"
        p = self.out_shape[1] * self.out_shape[2]
        self.cols_elems = c * (kk + 1) * p
        self.tmp_elems = c * p

    def param_nbytes(self) -> int:
        return self.w8.nbytes + 2 * 4 * self.w8.shape[0]

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        n = x.shape[2]
        c = self.in_shape[0]
        oh, ow = self.out_shape[1], self.out_shape[2]
        np_out = oh * n * ow
        cols = b.cols[: c * (self.kk + 1) * np_out].reshape(
            c, self.kk + 1, np_out
        )
        k, s = self.kernel, self.stride
        c4 = cols[:, : self.kk].reshape(c, self.kk, oh, n, ow)
        tap = 0
        for i in range(k):
            rows = slice(i, i + s * (oh - 1) + 1, s)
            for j in range(k):
                cc = slice(j, j + s * (ow - 1) + 1, s)
                np.copyto(c4[:, tap], x[:, rows, :, cc])
                tap += 1
        cols[:, self.kk].fill(1.0)
        acc = b.tmp[: c * np_out].reshape(c, 1, np_out)
        np.matmul(self.wf, cols, out=acc)
        np.multiply(acc, self.r, out=acc)
        if not self.rounded:
            np.rint(acc, out=acc)
        np.clip(acc, self.lo, self.hi, out=acc)
        np.copyto(out.reshape(c, 1, np_out), acc, casting="unsafe")
        return out


class _QuantMaxPool(_QStep):
    """Tap-wise int8 max — max commutes with the (positive) scale, so
    the output keeps the input's scale and the pool is exact.  Zero
    padding: int8 0 is exactly fp32 0.0 under a symmetric scale,
    matching the fp32 pool's pad."""

    def __init__(self, src: _MaxPool, scale: float) -> None:
        self.in_scale = self.out_scale = float(scale)
        self.kernel = src.kernel
        self.stride = src.stride
        self.padding = src.padding
        self.in_shape = src.in_shape
        self.out_shape = src.out_shape
        self.label = f"int8.{src.label}"

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        return _max_pool(
            x, out, self.kernel, self.stride, self.out_shape[1], self.out_shape[2], 1
        )


class _QuantLinear(_QStep):
    """int8 linear: int8 (N, F) in, fp32 logits (N, out) out."""

    label = "int8.linear"
    out_dtype = np.float32

    def __init__(self, src: _LinearStep, in_scale: float) -> None:
        # src.w_t is (F, out); per-output-channel scales reduce over F
        self.w_scales = weight_scales(src.w_t, axis=1)
        self.w8 = np.ascontiguousarray(
            quantize_per_channel(src.w_t, self.w_scales, axis=1).T
        )  # (out, F) artifact layout
        self.wf = np.ascontiguousarray(self.w8.T, dtype=np.float32)
        self.in_scale = float(in_scale)
        self.r = (self.w_scales * self.in_scale).astype(np.float32)
        self.bias = src.bias
        self.out_shape = src.out_shape
        self.cols_elems = src.w_t.shape[0]

    def param_nbytes(self) -> int:
        return self.w8.nbytes + 4 * self.w8.shape[0] + self.bias.nbytes

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        x, out, _ = b.enter(self, x)
        n, f = x.shape
        xf = b.cols[: n * f].reshape(n, f)
        np.copyto(xf, x)
        np.matmul(xf, self.wf, out=out)
        np.multiply(out, self.r, out=out)
        out += self.bias
        return out


class _QuantResidual(_QStep):
    """Residual merge in the int8 domain.

    Body and shortcut run as quantized sub-plans; the merge rescales
    both int8 operands into the result's scale in one f32 accumulator
    (``q_out = clip(q_body*s_b/s_res + q_id*s_id/s_res + 0.5)``), fusing
    add + ReLU + requantization into a handful of elementwise passes.
    """

    def __init__(
        self,
        body: list[_Step],
        shortcut: list[_Step] | None,
        activation: str,
        out_shape: tuple[int, ...],
        in_scale: float,
        body_scale: float,
        shortcut_scale: float,
        out_scale: float,
    ) -> None:
        self.body = body
        self.shortcut = shortcut
        self.activation = activation
        self.out_shape = out_shape
        self.in_scale = float(in_scale)
        self.out_scale = float(out_scale)
        self.c_body = np.float32(body_scale / out_scale)
        self.c_short = np.float32(shortcut_scale / out_scale)
        half, self.lo, self.hi = _requant_params(activation or None, out_scale)
        self.half = np.float32(half)
        self.rounded = half > 0.0
        self.label = f"int8.residual+{activation}" if activation else "int8.residual"
        self.tmp_elems = 2 * int(np.prod(out_shape))

    def sub_plans(self) -> list[list[_Step]]:
        return [self.body] + ([self.shortcut] if self.shortcut else [])

    def run(self, x: np.ndarray, b: _Binding) -> np.ndarray:
        identity = x
        for step in self.shortcut or ():
            identity = step.run(identity, b)
        out8 = x
        for step in self.body:
            out8 = step.run(out8, b)
        x, out, _ = b.enter(self, x)
        elems = out.size
        acc = b.tmp[:elems].reshape(out.shape)
        idf = b.tmp[elems : 2 * elems].reshape(out.shape)
        np.multiply(out8, self.c_body, out=acc)
        np.multiply(identity, self.c_short, out=idf)
        np.add(acc, idf, out=acc)
        if self.rounded:
            np.add(acc, self.half, out=acc)
        else:
            np.rint(acc, out=acc)
        np.clip(acc, self.lo, self.hi, out=acc)
        np.copyto(out, acc, casting="unsafe")
        return out


# ----------------------------------------------------------------------
# calibration + plan transform


def _record_amax(
    steps: list[_Step], x: np.ndarray, binding: _Binding, amax: dict[int, float]
) -> np.ndarray:
    """Run fp32 ``steps`` on ``x``, recording each step's output amax."""
    for step in steps:
        if isinstance(step, _ResidualStep):
            identity = x
            if step.shortcut is not None:
                identity = _record_amax(step.shortcut, x, binding, amax)
            out = _record_amax(step.body, x, binding, amax)
            merged = out + identity
            if step.activation == "relu":
                np.maximum(merged, 0.0, out=merged)
            amax[id(step)] = float(np.max(np.abs(merged)))
            x = merged
        else:
            x = step.run(x, binding)
            amax[id(step)] = float(np.max(np.abs(x)))
    return x


def _scale_from_amax(value: float) -> float:
    return value / QMAX if value > 0.0 else 1.0


def _quantizable(step: _Step) -> bool:
    if isinstance(step, (_FusedConv, _FusedDepthwise, _MaxPool)):
        return True
    if isinstance(step, _ResidualStep):
        return all(_quantizable(s) for s in step.body) and all(
            _quantizable(s) for s in (step.shortcut or ())
        )
    return False


def _quantize_chain(
    steps: list[_Step], in_scale: float, amax: dict[int, float]
) -> tuple[list[_Step], float, bool]:
    """Quantize a fully-quantizable chain; returns (steps, out_scale, open).

    ``open`` is False when the chain ended in an fp32-producing step
    (a quantized linear), True when its output is still int8.
    """
    out: list[_Step] = []
    scale = in_scale
    for step in steps:
        if isinstance(step, _FusedConv):
            s_out = _scale_from_amax(amax[id(step)])
            out.append(_QuantConv(step, scale, s_out))
            scale = s_out
        elif isinstance(step, _FusedDepthwise):
            s_out = _scale_from_amax(amax[id(step)])
            out.append(_QuantDepthwise(step, scale, s_out))
            scale = s_out
        elif isinstance(step, _MaxPool):
            out.append(_QuantMaxPool(step, scale))
        elif isinstance(step, _LinearStep):
            out.append(_QuantLinear(step, scale))
            return out, scale, False
        elif isinstance(step, _ResidualStep):
            body, body_scale, _ = _quantize_chain(step.body, scale, amax)
            shortcut = None
            short_scale = scale
            if step.shortcut is not None:
                shortcut, short_scale, _ = _quantize_chain(
                    step.shortcut, scale, amax
                )
            s_out = _scale_from_amax(amax[id(step)])
            out.append(
                _QuantResidual(
                    body,
                    shortcut,
                    step.activation,
                    step.out_shape,
                    scale,
                    body_scale,
                    short_scale,
                    s_out,
                )
            )
            scale = s_out
        else:  # pragma: no cover - guarded by _quantizable
            raise TypeError(f"cannot quantize step {step.label}")
    return out, scale, True


def _quantize_plan(
    steps: list[_Step],
    input_shape: tuple[int, ...],
    in_scale: float,
    amax: dict[int, float],
) -> tuple[list[_Step], int]:
    """Rewrite the longest quantizable prefix of ``steps`` into int8.

    Returns the new plan plus the number of quantized compute steps; a
    plan with no quantizable prefix is returned unchanged.  A linear
    layer inside the prefix already emits fp32, so no dequantize step
    is needed after it; otherwise the prefix is closed with an explicit
    :class:`_DequantizeStep` back to the fp32 NCHW layout.
    """
    prefix = 0
    while prefix < len(steps) and _quantizable(steps[prefix]):
        prefix += 1
    # a linear layer can terminate the quantized prefix (it emits fp32)
    if prefix < len(steps) and isinstance(steps[prefix], _LinearStep):
        prefix += 1
    if prefix == 0 or not any(
        not isinstance(s, _MaxPool) for s in steps[:prefix]
    ):
        return steps, 0
    qsteps: list[_Step] = [_QuantizeStep(input_shape, in_scale)]
    chain, scale, open_chain = _quantize_chain(steps[:prefix], in_scale, amax)
    qsteps.extend(chain)
    if open_chain:
        qsteps.append(_DequantizeStep(chain[-1].out_shape, scale))
    qsteps.extend(steps[prefix:])
    return qsteps, prefix


def plan_param_bytes(plan: CompiledModule) -> int:
    """Bytes of the plan's deployed weight artifact.

    Quantized steps count int8 weights + float32 scale/bias vectors;
    fp32 steps count their laid-out float32 tensors.  This is the
    dtype-aware ``m(s)`` input the repository uses (the f32 GEMM shadow
    of quantized weights is an emulation artifact and NOT counted; see
    the module docstring).
    """
    total = 0
    for step in _iter_steps(plan.steps):
        counter = getattr(step, "param_nbytes", None)
        if counter is not None:
            total += int(counter())
            continue
        for attr in ("w_mat", "w_t", "bias", "scale", "shift"):
            tensor = getattr(step, attr, None)
            if isinstance(tensor, np.ndarray):
                total += tensor.nbytes
    return total


class QuantizedModule(CompiledModule):
    """An int8 execution plan — a drop-in :class:`CompiledModule`.

    Compiles the fp32 plan, calibrates activation scales on
    ``calibration`` (a batch shaped ``(n, *input_shape)``; a seeded
    standard-normal batch by default), then rewrites the longest
    quantizable prefix into int8 steps.  ``forward`` keeps the fp32
    in/out contract; step labels carry an ``int8.`` prefix so traces
    distinguish quantized from fp32 plan steps.
    """

    kind = "compiled-int8"
    precision = "int8"

    def __init__(
        self,
        source,
        input_shape: tuple[int, ...],
        calibration: np.ndarray | None = None,
    ) -> None:
        super().__init__(source, input_shape)
        if calibration is None:
            calibration = default_calibration_batch(self.input_shape)
        calibration = np.ascontiguousarray(calibration, dtype=np.float32)
        if tuple(calibration.shape[1:]) != self.input_shape:
            raise ValueError(
                f"calibration batch shaped {calibration.shape} does not "
                f"match input shape {self.input_shape}"
            )
        # the fp32 pass runs on a private arena that dies with it
        binding = self._bind(_Arena(), calibration.shape[0])
        amax: dict[int, float] = {}
        #: what the fp32 plan makes of the calibration batch — the batch
        #: a plan fed by this one should calibrate on
        self.calibration_output = np.array(
            _record_amax(self.steps, calibration, binding, amax)
        )
        self.input_scale = activation_scale(calibration)
        self.steps, self.quantized_steps = _quantize_plan(
            self.steps, self.input_shape, self.input_scale, amax
        )

    def param_bytes(self) -> int:
        """Dtype-aware weight bytes of the deployed plan."""
        return plan_param_bytes(self)

    def conv_schemes(self, n: int) -> list[str]:
        """Scheme each int8 conv of a forward of ``n`` binds, in plan order:
        the schemes at ``min(n, _TILE)``, the tile a forward runs (a
        remainder tile binds its own size's)."""
        tile = min(n, _TILE)
        return [
            step.scheme(tile)
            for step in _iter_steps(self.steps)
            if isinstance(step, _QuantConv)
        ]

"""Measurement of per-block inference cost — the DOT inputs.

The paper derives ``c(s)`` (inference compute time) and ``mu(s)``
(memory) for every DNN block "experimentally".  This module performs the
same measurement on the numpy engine: each layer-block's compiled plan —
what the deployment runs — is timed on a dummy input tensor (the paper's
"standard procedure to estimate DNN model inference compute time in a
system", Fig. 3 caption), and its memory
footprint is computed from the parameter tensors plus the peak
intermediate activation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.core.catalog import DEFAULT_BATCH_MARGINAL
from repro.dnn.layers import BYTES_PER_PARAM
from repro.dnn.resnet import BLOCK_NAMES, ResNet18

__all__ = [
    "BlockProfile",
    "ModelProfile",
    "fit_batch_marginal",
    "profile_model",
    "time_forward",
]


@dataclass(frozen=True)
class BlockProfile:
    """Measured cost of a single layer-block."""

    name: str
    #: median wall-clock seconds for one forward pass, batch size 1
    compute_time_s: float
    #: analytic FLOPs for one sample
    flops: int
    #: number of parameters
    params: int
    #: bytes held by parameters (dtype-aware: int8 plans count their
    #: int8 weights + f32 scale/bias vectors, not the fp32 tensors)
    param_bytes: int
    #: bytes of the largest intermediate activation (batch size 1)
    activation_bytes: int
    #: numeric format the block was profiled at ("fp32" or "int8")
    precision: str = "fp32"
    #: the block's batch law (:class:`repro.core.catalog.Block`), fitted to
    #: its own timings at larger batches; the engine-wide default when the
    #: profile timed batch 1 only
    batch_marginal: float = DEFAULT_BATCH_MARGINAL

    @property
    def memory_bytes(self) -> int:
        """Serving memory: parameters + the peak activation buffer."""
        return self.param_bytes + self.activation_bytes

    @property
    def memory_gb(self) -> float:
        return self.memory_bytes / 1e9


@dataclass(frozen=True)
class ModelProfile:
    """Per-block profiles for a full model, in execution order."""

    blocks: tuple[BlockProfile, ...]
    input_shape: tuple[int, int, int]

    @property
    def total_compute_time_s(self) -> float:
        return sum(b.compute_time_s for b in self.blocks)

    @property
    def total_flops(self) -> int:
        return sum(b.flops for b in self.blocks)

    @property
    def total_params(self) -> int:
        return sum(b.params for b in self.blocks)

    def block(self, name: str) -> BlockProfile:
        for profile in self.blocks:
            if profile.name == name:
                return profile
        raise KeyError(name)


def time_forward(
    fn,
    x: np.ndarray,
    repeats: int = 5,
    warmup: int = 1,
    clock: Callable[[], float] = time.perf_counter,
) -> float:
    """Median wall-clock seconds of ``fn(x)`` over ``repeats`` runs.

    ``clock`` is the timestamp source; tests inject a fake clock to pin
    the measured values exactly.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn(x)
    samples = []
    for _ in range(repeats):
        start = clock()
        fn(x)
        samples.append(clock() - start)
    return float(np.median(samples))


def fit_batch_marginal(timings: Iterable[tuple[float, int, float]]) -> float:
    """The marginal ``m`` of ``t(n) = t(1) · (1 + (n − 1) · m)``.

    ``timings`` are ``(t(1), n, t(n))`` measurements — one block's at a
    few batch sizes, or a whole bench's for the engine-wide default.
    Least squares on the *relative* error of the predicted ``t(n)``, so a
    long batch-32 time does not outvote a batch-8 one; never below 0.
    """
    num = den = 0.0
    for t1, n, tn in timings:
        scaled = (n - 1) * t1 / tn
        num += scaled * (1.0 - t1 / tn)
        den += scaled * scaled
    if den == 0.0:  # no timings, or none measurable
        return DEFAULT_BATCH_MARGINAL
    return max(0.0, num / den)


def profile_model(
    model: ResNet18,
    repeats: int = 5,
    warmup: int = 1,
    compiled: bool = True,
    quantize: str | None = None,
    clock: Callable[[], float] = time.perf_counter,
    batch_sizes: tuple[int, ...] = (),
) -> ModelProfile:
    """Profile each layer-block of ``model`` on a dummy tensor.

    Each block is compiled into the execution plan the serving runtime
    runs (:func:`repro.dnn.compile.compile_module`) and the plan's
    forward is timed; the dummy activation is carried from plan to plan.
    FLOPs figures stay analytic.  ``compiled`` only accepts ``True``:
    there is no eager inference mode.

    Timing uses batch size 1 (per-inference cost, as consumed by the DOT
    compute constraint which scales cost by the task request rate).
    ``batch_sizes`` (e.g. ``(8, 32)``) additionally times every block —
    the same plan — on that many samples and fits the block's batch law
    to them (:func:`fit_batch_marginal`); left empty, no more work is
    done and the blocks carry the engine-wide default.

    ``quantize="int8"`` times the int8 plan, each block calibrated on
    what the plan before it makes of the calibration batch — as
    ``serving.BlockwiseRunner`` compiles a path — and reports the
    *dtype-aware* memory footprint: ``param_bytes`` are the deployed
    int8 weights + f32 scale/bias vectors (4x smaller than fp32), and
    ``activation_bytes`` count 1 byte per element for blocks whose plan
    actually quantized (int8 activations dominate the buffers).  Blocks
    with no quantizable prefix keep fp32 accounting.
    """
    if not compiled:
        raise ValueError(
            f"profile_model(compiled={compiled!r}): compiled plans are the only "
            "inference route"
        )
    from repro.dnn.compile import compile_module

    profiles: list[BlockProfile] = []
    x = np.zeros((1, *model.input_shape), dtype=np.float32)
    shape: tuple[int, ...] = model.input_shape
    calibration = None
    for name in BLOCK_NAMES:
        block = model.blocks[name]
        plan = compile_module(block, shape, quantize=quantize, calibration=calibration)
        timed = plan.forward
        params = block.param_count()
        param_bytes = params * BYTES_PER_PARAM
        act_elem_bytes = BYTES_PER_PARAM
        precision = "fp32"
        if quantize is not None:
            calibration = plan.calibration_output
            if plan.quantized_steps > 0:
                param_bytes = plan.param_bytes()
                act_elem_bytes = 1  # int8 activations
                precision = plan.precision
        elapsed = time_forward(timed, x, repeats=repeats, warmup=warmup, clock=clock)
        marginal = fit_batch_marginal(
            (
                elapsed,
                n,
                time_forward(
                    timed, np.repeat(x, n, axis=0), repeats=repeats, warmup=warmup,
                    clock=clock,
                ),
            )
            for n in batch_sizes
        )
        profiles.append(
            BlockProfile(
                name=name,
                compute_time_s=elapsed,
                flops=block.flops(shape),
                params=params,
                param_bytes=param_bytes,
                activation_bytes=block.activation_size(shape) * act_elem_bytes,
                precision=precision,
                batch_marginal=marginal,
            )
        )
        x = timed(x)
        shape = plan.out_shape
    return ModelProfile(blocks=tuple(profiles), input_shape=model.input_shape)

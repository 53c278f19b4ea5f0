"""A compiled plan binds at most one tile: a forward of more than
``_TILE`` samples runs as consecutive tiles of ``_TILE``, the last one
the remainder (12 = 8 + 4: the bindings at 8 and at 4), each written
into one preallocated output.

Every step treats samples independently, so the tiled forward must be
the forward of each of its slices, bit for bit, and on the
``execute_real`` deployment it must be the whole-batch forward the
engine ran before it tiled (``oracles.fresh_forward`` binds the whole
batch on fresh memory).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.bench_engine import shared_trunk_runners
from repro.dnn import compile as compile_mod
from repro.dnn.compile import _iter_steps, _thread_arena, compile_module
from repro.dnn.quantize import _QuantConv
from repro.dnn.repository import _LAW_BATCH_SIZES
from repro.dnn.resnet import BLOCK_NAMES, build_resnet18
from tests.oracles import fresh_forward

#: the tile the engine's batch-32 measurements chose (see ``_TILE``)
TILE = 8


def _slices(n: int) -> list[slice]:
    return [slice(lo, min(lo + TILE, n)) for lo in range(0, n, TILE)]


@pytest.fixture(scope="module")
def block_plans():
    """fp32 and int8 plans of every ResNet-18 w32 block, at 32 px."""
    model = build_resnet18(num_classes=10, input_size=32, width=32, seed=0)
    plans, shape = [], model.input_shape
    calibration = None
    for name in BLOCK_NAMES:
        block = model.blocks[name]
        plans.append(compile_module(block, shape))
        quantized = compile_module(
            block, shape, quantize="int8", calibration=calibration
        )
        calibration = quantized.calibration_output
        plans.append(quantized)
        shape = block.output_shape(shape)
    return plans


def test_the_tile_covers_the_batch_law():
    """Every batch size the batch law is fitted to runs untiled."""
    assert compile_mod._TILE == TILE
    assert compile_mod._TILE >= max(_LAW_BATCH_SIZES)


@pytest.mark.parametrize("n", [9, 12, 32])
def test_tiled_forward_is_the_forward_of_each_slice(block_plans, n):
    rng = np.random.default_rng(n)
    for plan in block_plans:
        x = rng.standard_normal((n, *plan.input_shape), dtype=np.float32)
        out = plan.forward(x)
        assert out.shape == (n, *plan.out_shape) and out.dtype == np.float32
        for part in _slices(n):
            np.testing.assert_array_equal(
                out[part], plan.forward(x[part]), err_msg=f"{plan.kind} {part}"
            )


@pytest.mark.parametrize("n, sizes", [(32, {8}), (12, {8, 4}), (9, {8, 1})])
def test_a_forward_binds_no_more_than_a_tile(block_plans, n, sizes):
    """After a forward of ``n`` the thread arena holds the tile's
    binding and the remainder's, and none larger."""
    rng = np.random.default_rng(3)
    for plan in block_plans:
        _thread_arena().release()
        plan.forward(rng.standard_normal((n, *plan.input_shape), dtype=np.float32))
        assert set(_thread_arena().bound[plan]) == sizes, plan.kind
    _thread_arena().release()


def test_conv_schemes_are_the_tiles(block_plans):
    """``conv_schemes(n)`` reports what a forward of ``n`` binds."""
    for plan in block_plans:
        if plan.precision != "int8":
            continue
        _thread_arena().release()
        plan.forward(np.zeros((32, *plan.input_shape), dtype=np.float32))
        (binding,) = _thread_arena().bound[plan].values()
        bound = [
            binding.bufs[step][3][0]
            for step in _iter_steps(plan.steps)
            if isinstance(step, _QuantConv)
        ]
        assert bound == plan.conv_schemes(32) == plan.conv_schemes(TILE)
    _thread_arena().release()


def test_execute_real_batch_32_is_the_whole_batch_forward():
    """Every path of the ``execute_real`` deployment, at both precisions:
    the tiled forward of 32 is bit-equal to the plans bound to the whole
    batch of 32, the forward the engine ran before it tiled (its int8
    ``layer4`` convs bind F(2,3) Winograd there, exact on integer data,
    and ``kw`` in an 8-sample tile)."""
    runners, paths, shape = shared_trunk_runners(32, 32)
    x = np.random.default_rng(32).standard_normal((32, *shape), dtype=np.float32)
    schemes = set()
    for runner in runners.values():
        for path in paths:
            plans = runner._plans(tuple(b.block_id for b in path.blocks), shape)
            whole = x
            for plan in plans:
                whole = fresh_forward(plan, whole)
                schemes.update(
                    step.scheme(32)
                    for step in _iter_steps(plan.steps)
                    if isinstance(step, _QuantConv)
                )
            np.testing.assert_array_equal(
                runner.run(path, x), whole, err_msg=f"{runner.precision} {path.path_id}"
            )
    # the oracle's whole batch binds a scheme no 8-sample tile binds
    assert "wino2" in schemes

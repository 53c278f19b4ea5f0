"""Int8 quantization: round-trip bounds, e2e parity, determinism.

The weight quantization primitives are exact-arithmetic claims (f64
internal math) so the hypothesis suite proves hard error bounds; the
end-to-end suite checks the property that actually matters to the
catalog — int8 plans agree with fp32 on top-1 within a stated
tolerance and are bit-identical across runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import INT8_ACCURACY_DROP
from repro.dnn.compile import compile_module
from repro.dnn.configs import TABLE_I_CONFIGS
from repro.dnn.graph import Sequential
from repro.dnn.layers import MaxPool2d
from repro.dnn.pruning import prune_resnet
from repro.dnn.quantize import (
    QMAX,
    QuantizedModule,
    _DequantizeStep,
    _QuantizeStep,
    activation_scale,
    default_calibration_batch,
    quantize_per_channel,
    weight_scales,
)
from repro.dnn.resnet import build_resnet18

#: worst measured Table I config (CONFIG C) sits at 0.88 agreement on
#: the seeded probe; anything under this indicates a broken requant path
TOP1_AGREEMENT_TOL = 0.75

SHAPES = st.sampled_from([(4, 3, 3, 3), (8, 4), (1, 1), (6, 2, 1, 1), (3, 5)])


def _weights(shape, seed: int, exponent: int) -> np.ndarray:
    """Seeded weights scaled to 10^exponent, with degenerate channels."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=shape) * 10.0**exponent
    if shape[0] >= 2:
        w[0] = 0.0  # all-zero output channel
    if shape[0] >= 3:
        w[1] = w[1].flat[0]  # constant channel
    return w


def _dequantize(q: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """float32 values of int8 ``q`` under per-output-channel ``scales``."""
    shape = (-1,) + (1,) * (q.ndim - 1)
    return (q.astype(np.float64) * scales.reshape(shape)).astype(np.float32)


# -- per-channel weight round-trip ------------------------------------------


@given(
    shape=SHAPES,
    seed=st.integers(0, 2**16),
    exponent=st.integers(-30, 30),
)
@settings(max_examples=120, deadline=None)
def test_weight_roundtrip_error_bounded(shape, seed, exponent):
    """|w − deq(quant(w))| ≤ scale/2 per channel — the rounding bound."""
    w = _weights(shape, seed, exponent)
    scales = weight_scales(w)
    q = quantize_per_channel(w, scales)
    assert q.dtype == np.int8
    # symmetric range: -128 is never produced
    assert int(q.min()) >= -QMAX and int(q.max()) <= QMAX
    back = _dequantize(q, scales)
    err = np.abs(back.astype(np.float64) - w)
    bound = scales.reshape((-1,) + (1,) * (w.ndim - 1)) * 0.5
    # float32 output adds one ulp of slack at extreme magnitudes
    assert np.all(err <= bound + np.abs(w) * 1e-6 + 1e-30)


@given(shape=SHAPES, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_zero_and_constant_channels_are_exact(shape, seed):
    w = _weights(shape, seed, 0)
    scales = weight_scales(w)
    back = _dequantize(quantize_per_channel(w, scales), scales)
    if shape[0] >= 2:
        # the all-zero channel reconstructs exactly (scale 1.0 by definition)
        np.testing.assert_array_equal(back[0], np.zeros_like(back[0]))
        assert scales[0] == 1.0
    if shape[0] >= 3:
        # a constant channel hits the grid exactly: value = scale * 127
        np.testing.assert_allclose(
            back[1].astype(np.float64), w[1], rtol=1e-6, atol=1e-30
        )


def test_weight_scales_axis_and_shape():
    w = np.zeros((4, 3, 2, 2))
    w[2, 1, 0, 0] = 254.0
    scales = weight_scales(w)
    assert scales.shape == (4,)
    assert scales[2] == pytest.approx(2.0)
    assert scales[0] == scales[1] == scales[3] == 1.0


def test_quantize_clips_out_of_range_values():
    w = np.array([[300.0, -300.0, 1.0]])
    q = quantize_per_channel(w, np.array([1.0]))
    np.testing.assert_array_equal(q, [[QMAX, -QMAX, 1]])


# -- per-tensor activation round-trip ---------------------------------------


def _activation_roundtrip(x: np.ndarray, scale: float) -> tuple:
    """``x`` through an int8 plan's entry quantize and exit dequantize
    steps alone: ``(int8 tensor between them, fp32 result)``."""
    shape = x.shape[1:]
    quantize = _QuantizeStep(shape, scale)
    plan = compile_module(Sequential(MaxPool2d(1, 1)), shape)
    plan.steps = [quantize, _DequantizeStep(shape, scale)]
    back = plan.forward(x)
    # the entry step's output buffer, untouched until the next forward
    q = plan._binding(x.shape[0]).bufs[quantize][2]
    return q, back


@given(
    shape=st.tuples(*(st.integers(1, 5) for _ in range(4))),
    seed=st.integers(0, 2**16),
    exponent=st.integers(-20, 20),
)
@settings(max_examples=100, deadline=None)
def test_tensor_roundtrip_error_bounded(shape, seed, exponent):
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=shape) * 10.0**exponent).astype(np.float32)
    scale = activation_scale(x)
    q, back = _activation_roundtrip(x, scale)
    assert q.dtype == np.int8
    assert int(q.min()) >= -QMAX and int(q.max()) <= QMAX
    assert back.shape == x.shape
    x64 = x.astype(np.float64)
    assert np.all(
        np.abs(back.astype(np.float64) - x64) <= scale * 0.5 + np.abs(x64) * 1e-6
    )


# -- per-tensor activation scale ---------------------------------------------


def test_activation_scale_degenerate_tensors():
    assert activation_scale(np.zeros((3, 3))) == 1.0
    assert activation_scale(np.zeros((0,))) == 1.0
    assert activation_scale(np.full((2, 2), 254.0)) == pytest.approx(2.0)


# -- end-to-end parity on the Table I configurations ------------------------


def _config_model(name: str, width: int = 8, input_size: int = 16):
    config = TABLE_I_CONFIGS[name]
    model = build_resnet18(
        num_classes=10, input_size=input_size, width=width, seed=0
    )
    if config.pruned:
        prune_resnet(model, set(config.prunable_blocks), config.prune_ratio)
    return model


class TestEndToEndParity:
    @pytest.mark.parametrize("name", sorted(TABLE_I_CONFIGS))
    def test_top1_agreement_with_fp32(self, name):
        model = _config_model(name)
        fp32 = compile_module(model)
        int8 = compile_module(model, quantize="int8")
        assert isinstance(int8, QuantizedModule)
        assert int8.quantized_steps > 0
        x = np.random.default_rng(7).standard_normal(
            (16, *model.input_shape), dtype=np.float32
        )
        ref = np.argmax(fp32.forward(x), axis=1)
        got = np.argmax(int8.forward(x), axis=1)
        agreement = float(np.mean(ref == got))
        assert agreement >= TOP1_AGREEMENT_TOL, (
            f"{name}: top-1 agreement {agreement:.2f} < {TOP1_AGREEMENT_TOL}"
        )

    def test_bit_identical_across_runs_and_recompiles(self):
        model = _config_model("CONFIG A")
        x = np.random.default_rng(3).standard_normal(
            (4, *model.input_shape), dtype=np.float32
        )
        plan = compile_module(model, quantize="int8")
        first = plan.forward(x)
        np.testing.assert_array_equal(first, plan.forward(x))
        # an independently compiled plan reproduces the same bytes
        replica = compile_module(model, quantize="int8")
        np.testing.assert_array_equal(first, replica.forward(x))

    def test_plan_metadata_and_trace_labels(self):
        model = _config_model("CONFIG B")
        plan = compile_module(model, quantize="int8")
        assert plan.kind == "compiled-int8"
        assert plan.precision == "int8"
        labels = [s.label for s in plan.steps]
        assert any(label.startswith("int8.") for label in labels)
        assert "int8.quantize" in labels

    def test_int8_weights_are_4x_smaller(self):
        model = _config_model("CONFIG A")
        fp32 = compile_module(model)
        int8 = compile_module(model, quantize="int8")
        from repro.dnn.quantize import plan_param_bytes

        ratio = int8.param_bytes() / plan_param_bytes(fp32)
        # int8 weights + f32 scale/bias vectors: strictly under 1/3
        assert ratio < 1 / 3

    def test_calibration_batch_shape_validated(self):
        model = _config_model("CONFIG A")
        bad = np.zeros((4, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            compile_module(model, quantize="int8", calibration=bad)

    def test_default_calibration_is_deterministic(self):
        a = default_calibration_batch((3, 8, 8))
        b = default_calibration_batch((3, 8, 8))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (8, 3, 8, 8) and a.dtype == np.float32

    def test_accuracy_drop_constant_is_conservative(self):
        assert 0.0 < INT8_ACCURACY_DROP <= 0.01


# -- conv scheme by (shape, batch size) -------------------------------------


class TestSchemeByBatch:
    """A plan binds per batch size: Winograd's r^2 tile GEMMs only pay
    once the batch makes them fat enough, and never below 64 channels."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_resnet18(num_classes=10, input_size=32, width=32, seed=0)

    def _block_plans(self, model):
        plans, shape = {}, model.input_shape
        for name in ("stem", "layer1", "layer2", "layer3", "layer4"):
            block = model.blocks[name]
            plans[name] = compile_module(block, shape, quantize="int8")
            shape = block.output_shape(shape)
        return plans

    def test_no_winograd_at_batch_1(self, model):
        plan = compile_module(model, quantize="int8")
        schemes = plan.conv_schemes(1)
        assert len(schemes) == 20  # every conv of ResNet-18
        assert not any(scheme.startswith("wino") for scheme in schemes)

    def test_winograd_where_the_tile_gemms_are_fat(self, model):
        plans = self._block_plans(model)
        for n in (1, 2, 4, 8, 16, 32, 64):
            # layer1 is 32 channels wide: below the 64-channel floor
            assert not any(s.startswith("wino") for s in plans["layer1"].conv_schemes(n))
        for name in ("layer2", "layer3"):
            assert "wino4" in plans[name].conv_schemes(32)
            assert "wino4" not in plans[name].conv_schemes(1)
        # the choice is monotone in n: once fat enough, always fat enough
        for plan in plans.values():
            wino = [
                sum(s.startswith("wino") for s in plan.conv_schemes(n))
                for n in (1, 2, 4, 8, 16, 32)
            ]
            assert wino == sorted(wino)

    def test_bound_scheme_is_the_reported_one(self, model):
        from repro.dnn.compile import _Arena, _iter_steps
        from repro.dnn.quantize import _QuantConv

        plan = compile_module(model.blocks["layer1"], (32, 32, 32), quantize="int8")
        wide = compile_module(
            build_resnet18(num_classes=10, input_size=32, width=64, seed=0).blocks[
                "layer1"
            ],
            (64, 32, 32),
            quantize="int8",
        )
        for p, n in ((plan, 1), (plan, 8), (wide, 1), (wide, 8)):
            binding = p._bind(_Arena(), n)
            bound = [
                binding.bufs[step][3][0]
                for step in _iter_steps(p.steps)
                if isinstance(step, _QuantConv)
            ]
            assert bound == p.conv_schemes(n)
        # 64 channels at 32 x 32 already make 4096 transform columns
        assert set(wide.conv_schemes(1)) == {"wino4"}

    def test_sample_alone_and_inside_a_batch_agree(self, model):
        """Batch 1 binds kw/im2col where batch 8 binds Winograd, whose
        f32 tile transforms round differently: integer requant results
        may differ by one step on a few activations, so logits agree to
        2 % of their spread (measured: 0.3-0.6 %), not bit for bit."""
        plan = compile_module(model, quantize="int8")
        assert plan.conv_schemes(1) != plan.conv_schemes(8)
        x = np.random.default_rng(5).standard_normal(
            (8, *model.input_shape), dtype=np.float32
        )
        batched = plan.forward(x)
        alone = np.concatenate([plan.forward(x[i : i + 1]) for i in range(8)])
        np.testing.assert_array_equal(alone.argmax(axis=1), batched.argmax(axis=1))
        assert float(np.abs(alone - batched).max()) <= 0.02 * float(np.ptp(batched))

    def test_fp32_does_not_depend_on_the_batch(self, model):
        """fp32 binds one scheme at every batch size: the conv stages are
        per-sample GEMMs, bit-equal alone or batched; only the head's
        (N, F) @ (F, classes) product is a different BLAS call at N = 1
        (gemv) — as before this plan bound per batch size — so logits
        agree to float32 rounding."""
        x = np.random.default_rng(6).standard_normal(
            (8, *model.input_shape), dtype=np.float32
        )
        shape = model.input_shape
        for name in ("stem", "layer1", "layer2", "layer3", "layer4"):
            plan = compile_module(model.blocks[name], shape)
            batched = plan.forward(x)
            for i in (0, 3, 7):
                np.testing.assert_array_equal(
                    plan.forward(x[i : i + 1]), batched[i : i + 1]
                )
            x, shape = batched, plan.out_shape
        head = compile_module(model.blocks["head"], shape)
        np.testing.assert_allclose(
            np.concatenate([head.forward(x[i : i + 1]) for i in range(8)]),
            head.forward(x),
            rtol=1e-5,
            atol=1e-5,
        )

    def test_scheme_shadows_are_not_artifact_bytes(self, model):
        plan = compile_module(model, quantize="int8")
        before = plan.param_bytes()
        for n in (1, 32):  # lays out kw/im2col, then Winograd operands
            plan.forward(np.zeros((n, *model.input_shape), dtype=np.float32))
        assert plan.param_bytes() == before

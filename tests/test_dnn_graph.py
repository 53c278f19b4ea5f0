"""Unit tests for module composition (Sequential / Residual)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dnn.graph import NamedModule, Residual, Sequential
from repro.dnn.layers import BatchNorm2d, Conv2d, Linear, ReLU
from tests.oracles import eager_forward


def _body(c_in: int, c_out: int, stride: int = 1) -> Sequential:
    rng = np.random.default_rng(0)
    return Sequential(
        Conv2d(c_in, c_out, kernel=3, stride=stride, padding=1, rng=rng),
        BatchNorm2d(c_out),
        ReLU(),
        Conv2d(c_out, c_out, kernel=3, stride=1, padding=1, rng=rng),
        BatchNorm2d(c_out),
    )


class TestSequential:
    def test_forward_chains_layers(self):
        seq = Sequential(Conv2d(3, 4, kernel=3, padding=1), ReLU())
        out = eager_forward(seq, np.zeros((1, 3, 8, 8), dtype=np.float32))
        assert out.shape == (1, 4, 8, 8)
        assert (out >= 0).all()

    def test_output_shape_accumulates(self):
        seq = Sequential(
            Conv2d(3, 4, kernel=3, stride=2, padding=1),
            Conv2d(4, 8, kernel=3, stride=2, padding=1),
        )
        assert seq.output_shape((3, 16, 16)) == (8, 4, 4)

    def test_flops_is_sum(self):
        a = Conv2d(3, 4, kernel=3, padding=1)
        b = Conv2d(4, 8, kernel=3, padding=1)
        seq = Sequential(a, b)
        assert seq.flops((3, 8, 8)) == a.flops((3, 8, 8)) + b.flops((4, 8, 8))

    def test_parameters_collected(self):
        seq = Sequential(Conv2d(3, 4, kernel=3), BatchNorm2d(4))
        assert seq.param_count() == 4 * 3 * 9 + 16

    def test_iter_layers_flattens(self):
        inner = Sequential(ReLU(), ReLU())
        outer = Sequential(inner, ReLU())
        assert len(list(outer.iter_layers())) == 3

    def test_activation_size_is_peak(self):
        seq = Sequential(
            Conv2d(3, 16, kernel=3, padding=1),  # activation 16*8*8 = 1024
            Conv2d(16, 2, kernel=3, padding=1),  # activation 2*8*8 = 128
        )
        assert seq.activation_size((3, 8, 8)) == 16 * 8 * 8


class TestResidual:
    def test_identity_shortcut_adds_input(self):
        body = _body(4, 4)
        # zero the body so output == relu(identity)
        for layer in body.layers:
            if isinstance(layer, Conv2d):
                layer.weight = np.zeros_like(layer.weight)
        res = Residual(body)
        x = np.random.default_rng(1).normal(size=(1, 4, 6, 6)).astype(np.float32)
        np.testing.assert_allclose(eager_forward(res, x), np.maximum(x, 0.0), atol=1e-5)

    def test_projection_shortcut_changes_channels(self):
        rng = np.random.default_rng(2)
        res = Residual(
            _body(4, 8, stride=2),
            Sequential(Conv2d(4, 8, kernel=1, stride=2, rng=rng), BatchNorm2d(8)),
        )
        out = eager_forward(res, np.zeros((1, 4, 8, 8), dtype=np.float32))
        assert out.shape == (1, 8, 4, 4)

    def test_mismatched_shapes_raise(self):
        res = Residual(_body(4, 8, stride=2))  # no shortcut but shape changes
        with pytest.raises(ValueError, match="residual shape mismatch"):
            eager_forward(res, np.zeros((1, 4, 8, 8), dtype=np.float32))

    def test_output_nonnegative(self):
        res = Residual(_body(4, 4))
        x = np.random.default_rng(3).normal(size=(2, 4, 5, 5)).astype(np.float32)
        assert (eager_forward(res, x) >= 0).all()

    def test_flops_includes_shortcut_and_add(self):
        body = _body(4, 8, stride=2)
        shortcut = Sequential(Conv2d(4, 8, kernel=1, stride=2), BatchNorm2d(8))
        res = Residual(body, shortcut)
        expected = (
            body.flops((4, 8, 8))
            + shortcut.flops((4, 8, 8))
            + 2 * 8 * 4 * 4
        )
        assert res.flops((4, 8, 8)) == expected


class TestNamedModule:
    def test_name_retained(self):
        mod = NamedModule("layer1", ReLU())
        assert mod.name == "layer1"

    def test_behaves_like_sequential(self):
        mod = NamedModule("head", Linear(8, 3))
        out = eager_forward(mod, np.zeros((2, 8), dtype=np.float32))
        assert out.shape == (2, 3)

    def test_total_activations_counts_all_layers(self):
        mod = NamedModule(
            "blk",
            Conv2d(3, 4, kernel=3, padding=1),
            ReLU(),
        )
        # conv out 4*8*8 + relu out 4*8*8
        assert mod.total_activations((3, 8, 8)) == 2 * 4 * 8 * 8

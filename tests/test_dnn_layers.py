"""Unit tests for layer objects: shapes, parameters, FLOPs (forwards
by the eager oracle)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dnn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
)
from tests.oracles import eager_forward


class TestConv2dLayer:
    def test_forward_shape(self):
        layer = Conv2d(3, 8, kernel=3, stride=2, padding=1)
        out = eager_forward(layer, np.zeros((2, 3, 16, 16), dtype=np.float32))
        assert out.shape == (2, 8, 8, 8)

    def test_output_shape_matches_forward(self):
        layer = Conv2d(3, 8, kernel=3, stride=2, padding=1)
        out = eager_forward(layer, np.zeros((1, 3, 16, 16), dtype=np.float32))
        assert out.shape[1:] == layer.output_shape((3, 16, 16))

    def test_param_count_no_bias(self):
        layer = Conv2d(4, 6, kernel=3)
        assert layer.param_count() == 6 * 4 * 9

    def test_param_count_with_bias(self):
        layer = Conv2d(4, 6, kernel=3, bias=True)
        assert layer.param_count() == 6 * 4 * 9 + 6

    def test_flops_positive_and_scales_with_channels(self):
        small = Conv2d(3, 8, kernel=3, padding=1)
        big = Conv2d(3, 16, kernel=3, padding=1)
        assert big.flops((3, 8, 8)) == 2 * small.flops((3, 8, 8))

    def test_invalid_channels_raise(self):
        with pytest.raises(ValueError):
            Conv2d(0, 4, kernel=3)

    def test_he_init_scale(self):
        layer = Conv2d(64, 64, kernel=3, rng=np.random.default_rng(0))
        std = layer.weight.std()
        expected = np.sqrt(2.0 / (64 * 9))
        assert 0.8 * expected < std < 1.2 * expected


class TestBatchNormLayer:
    def test_identity_at_init(self):
        layer = BatchNorm2d(4)
        x = np.random.default_rng(0).normal(size=(2, 4, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(eager_forward(layer, x), x, rtol=1e-4, atol=1e-4)

    def test_parameters_exposed(self):
        layer = BatchNorm2d(4)
        assert layer.param_count() == 16  # gamma, beta, mean, var

    def test_output_shape_unchanged(self):
        assert BatchNorm2d(4).output_shape((4, 7, 7)) == (4, 7, 7)


class TestSimpleLayers:
    def test_relu_shape_and_values(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0]], dtype=np.float32)
        np.testing.assert_array_equal(eager_forward(layer, x), [[0.0, 2.0]])

    def test_maxpool_shape(self):
        layer = MaxPool2d(kernel=3, stride=2, padding=1)
        assert layer.output_shape((8, 16, 16)) == (8, 8, 8)
        out = eager_forward(layer, np.zeros((1, 8, 16, 16), dtype=np.float32))
        assert out.shape == (1, 8, 8, 8)

    def test_global_avg_pool_shape(self):
        layer = GlobalAvgPool()
        assert layer.output_shape((16, 4, 4)) == (16,)

    def test_flatten(self):
        layer = Flatten()
        out = eager_forward(layer, np.zeros((2, 3, 4, 4), dtype=np.float32))
        assert out.shape == (2, 48)
        assert layer.output_shape((3, 4, 4)) == (48,)

    def test_linear_shapes_and_flops(self):
        layer = Linear(32, 10)
        out = eager_forward(layer, np.zeros((5, 32), dtype=np.float32))
        assert out.shape == (5, 10)
        assert layer.param_count() == 32 * 10 + 10
        assert layer.flops((32,)) == 2 * 32 * 10

    def test_activation_size(self):
        layer = Conv2d(3, 8, kernel=3, padding=1)
        assert layer.activation_size((3, 8, 8)) == 8 * 8 * 8

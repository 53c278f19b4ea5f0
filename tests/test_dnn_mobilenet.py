"""Unit tests for MobileNetV2 and its depthwise building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dnn import ops
from repro.dnn.graph import Residual, Sequential
from repro.dnn.layers import Conv2d, DepthwiseConv2d, ReLU6
from repro.dnn.mobilenet import build_mobilenetv2, inverted_residual
from repro.dnn.profiler import profile_model
from repro.dnn.resnet import BLOCK_NAMES
from tests import oracles


def naive_depthwise(x, w, stride, padding):
    n, c, h, wd = x.shape
    k = w.shape[1]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - k) // stride + 1
    out_w = (x.shape[3] - k) // stride + 1
    out = np.zeros((n, c, out_h, out_w))
    for b in range(n):
        for ch in range(c):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[b, ch, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[b, ch, i, j] = (patch * w[ch]).sum()
    return out


class TestDepthwiseOps:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0)])
    def test_matches_naive(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 3, 3)).astype(np.float32)
        got = oracles.depthwise_conv2d(x, w, stride, padding)
        want = naive_depthwise(x, w, stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            oracles.depthwise_conv2d(
                np.zeros((1, 3, 4, 4), np.float32), np.zeros((2, 3, 3), np.float32)
            )

    def test_relu6_clips_both_sides(self):
        x = np.array([-2.0, 3.0, 10.0])
        np.testing.assert_array_equal(oracles.eager_forward(ReLU6(), x), [0.0, 3.0, 6.0])

    def test_depthwise_cheaper_than_full_conv(self):
        """The point of depthwise separability: far fewer FLOPs."""
        full = ops.conv2d_flops(64, 64, 3, 8, 8)
        depthwise = ops.depthwise_conv2d_flops(64, 3, 8, 8)
        assert depthwise * 32 < full


class TestDepthwiseLayer:
    def test_forward_shape(self):
        layer = DepthwiseConv2d(8, kernel=3, stride=2, padding=1)
        out = oracles.eager_forward(layer, np.zeros((1, 8, 8, 8), np.float32))
        assert out.shape == (1, 8, 4, 4)
        assert out.shape[1:] == layer.output_shape((8, 8, 8))

    def test_params_per_channel(self):
        assert DepthwiseConv2d(8, kernel=3).param_count() == 8 * 9

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            DepthwiseConv2d(0, kernel=3)

    def test_relu6_layer(self):
        layer = ReLU6()
        out = oracles.eager_forward(layer, np.array([[-1.0, 8.0]], np.float32))
        np.testing.assert_array_equal(out, [[0.0, 6.0]])


class TestInvertedResidual:
    def test_shape_preserving_block_is_residual(self):
        rng = np.random.default_rng(0)
        block = inverted_residual(16, 16, stride=1, expansion=6, rng=rng)
        assert isinstance(block, Residual)
        assert block.activation == "linear"

    def test_shape_changing_block_is_plain(self):
        rng = np.random.default_rng(0)
        block = inverted_residual(16, 24, stride=2, expansion=6, rng=rng)
        assert isinstance(block, Sequential)

    def test_linear_residual_can_output_negative(self):
        """MobileNetV2's bottleneck addition is not rectified."""
        rng = np.random.default_rng(0)
        block = inverted_residual(8, 8, stride=1, expansion=6, rng=rng)
        x = rng.normal(size=(2, 8, 4, 4)).astype(np.float32)
        out = oracles.eager_forward(block, x)
        assert (out < 0).any()

    def test_expansion_one_skips_expansion_conv(self):
        rng = np.random.default_rng(0)
        no_expand = inverted_residual(8, 8, stride=1, expansion=1, rng=rng)
        expand = inverted_residual(8, 8, stride=1, expansion=6, rng=rng)
        assert no_expand.param_count() < expand.param_count()

    def test_invalid_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown residual activation"):
            Residual(Sequential(Conv2d(4, 4, kernel=1)), activation="gelu")


class TestBuildMobileNetV2:
    def test_block_partition_matches_resnet_scheme(self):
        model = build_mobilenetv2(num_classes=10, input_size=16, width_multiplier=0.25)
        assert tuple(model.blocks) == BLOCK_NAMES

    def test_forward_logits(self):
        model = build_mobilenetv2(num_classes=10, input_size=16, width_multiplier=0.25)
        x = np.random.default_rng(1).normal(size=(2, 3, 16, 16)).astype(np.float32)
        out = oracles.eager_forward(model, x)
        assert out.shape == (2, 10)
        assert np.isfinite(out).all()

    def test_canonical_width_parameter_scale(self):
        """At width 1.0 the backbone+60-class head lands near the
        published ~2.3M parameters (3.4M includes the 1000-class head)."""
        model = build_mobilenetv2(num_classes=60, input_size=32, width_multiplier=1.0)
        assert 2.0e6 < model.param_count() < 2.7e6

    def test_fewer_params_than_resnet18(self):
        """The paper's motivating comparison: MobileNetV2 is much
        smaller than the ResNet family."""
        from repro.dnn.resnet import build_resnet18

        mobile = build_mobilenetv2(num_classes=60, input_size=32, width_multiplier=1.0)
        resnet = build_resnet18(num_classes=60, input_size=32, width=64)
        assert mobile.param_count() < 0.25 * resnet.param_count()

    def test_profiler_applies_unchanged(self):
        model = build_mobilenetv2(num_classes=10, input_size=16, width_multiplier=0.25)
        profile = profile_model(model, repeats=1)
        assert profile.total_params == model.param_count()
        assert all(b.compute_time_s > 0 for b in profile.blocks)

    def test_width_multiplier_scales(self):
        slim = build_mobilenetv2(width_multiplier=0.25, input_size=16)
        wide = build_mobilenetv2(width_multiplier=0.5, input_size=16)
        assert wide.param_count() > slim.param_count()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_mobilenetv2(input_size=4)
        with pytest.raises(ValueError):
            build_mobilenetv2(width_multiplier=0.0)

"""The eager oracle's tensor operations (``tests/oracles.py``) against
naive loops, and the engine's shape and FLOP arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnn import ops
from repro.dnn.layers import GlobalAvgPool, ReLU
from tests import oracles


def naive_conv2d(x, w, stride, padding):
    """Straightforward reference convolution for cross-checking."""
    n, c_in, h, wdt = x.shape
    c_out, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - k) // stride + 1
    out_w = (x.shape[3] - k) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w), dtype=np.float64)
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[b, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[b, o, i, j] = (patch * w[o]).sum()
    return out


class TestConvOutputSize:
    def test_identity_same_padding(self):
        assert ops.conv_output_size(32, 3, 1, 1) == 32

    def test_stride_two_halves(self):
        assert ops.conv_output_size(32, 3, 2, 1) == 16

    def test_no_padding_shrinks(self):
        assert ops.conv_output_size(32, 3, 1, 0) == 30

    def test_pointwise(self):
        assert ops.conv_output_size(7, 1, 1, 0) == 7


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_reference(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        got = oracles.conv2d(x, w, stride=stride, padding=padding)
        want = naive_conv2d(x, w, stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_bias_added_per_channel(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        w = np.zeros((2, 1, 1, 1), dtype=np.float32)
        bias = np.array([1.5, -2.0], dtype=np.float32)
        out = oracles.conv2d(x, w, bias=bias)
        assert np.allclose(out[0, 0], 1.5)
        assert np.allclose(out[0, 1], -2.0)

    def test_channel_mismatch_raises(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        w = np.zeros((2, 4, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="channel mismatch"):
            oracles.conv2d(x, w)

    def test_identity_kernel_preserves_input(self):
        x = np.random.default_rng(1).normal(size=(1, 1, 5, 5)).astype(np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        np.testing.assert_allclose(oracles.conv2d(x, w), x, rtol=1e-6)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_conv_linearity(self, seed):
        """conv(a x) = a conv(x) — convolution is linear."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        a = float(rng.uniform(0.5, 2.0))
        np.testing.assert_allclose(
            oracles.conv2d(a * x, w, stride=1, padding=1),
            a * oracles.conv2d(x, w, stride=1, padding=1),
            rtol=1e-3,
            atol=1e-4,
        )

    def test_conv2d_flops_formula(self):
        # 2 * Cin * Cout * K^2 * OH * OW
        assert ops.conv2d_flops(3, 8, 3, 4, 4) == 2 * 3 * 8 * 9 * 16


class TestIm2col:
    def test_shapes(self):
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        cols, oh, ow = oracles.im2col(x, kernel=3, stride=1, padding=1)
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2, 3 * 9, 64)

    def test_content_single_window(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        cols, oh, ow = oracles.im2col(x, kernel=3, stride=1, padding=0)
        assert (oh, ow) == (1, 1)
        np.testing.assert_array_equal(cols[0, :, 0], np.arange(9))


class TestBatchNorm:
    def test_normalizes_to_affine(self):
        x = np.random.default_rng(2).normal(3.0, 2.0, size=(4, 2, 5, 5)).astype(np.float32)
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        out = oracles.batch_norm(
            x, np.ones(2, np.float32), np.zeros(2, np.float32), mean, var
        )
        assert abs(out.mean()) < 1e-2
        assert abs(out.std() - 1.0) < 1e-2

    def test_gamma_beta_applied(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        out = oracles.batch_norm(
            x,
            gamma=np.array([2.0], np.float32),
            beta=np.array([5.0], np.float32),
            running_mean=np.array([0.0], np.float32),
            running_var=np.array([1.0], np.float32),
        )
        np.testing.assert_allclose(out, 5.0, atol=1e-5)


class TestPoolingAndLinear:
    def test_max_pool_picks_maxima(self):
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        out = oracles.max_pool2d(x, kernel=2, stride=2)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 4.0

    def test_global_avg_pool(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        out = oracles.eager_forward(GlobalAvgPool(), x)
        np.testing.assert_allclose(out, [[1.5, 5.5]])

    def test_linear_matches_matmul(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6)).astype(np.float32)
        w = rng.normal(size=(3, 6)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        np.testing.assert_allclose(oracles.linear(x, w, b), x @ w.T + b, rtol=1e-5)


class TestRelu:
    def test_relu_clamps_negative(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(oracles.eager_forward(ReLU(), x), [0.0, 0.0, 2.0])

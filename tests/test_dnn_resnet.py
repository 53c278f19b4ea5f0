"""Unit tests for the ResNet-18 builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dnn.compile import compile_module
from repro.dnn.graph import Sequential
from repro.dnn.resnet import BLOCK_NAMES, ResNet18, basic_block, build_resnet18
from tests.oracles import eager_forward


@pytest.fixture(scope="module")
def small_model() -> ResNet18:
    return build_resnet18(num_classes=10, input_size=16, width=8, seed=0)


class TestBasicBlock:
    def test_identity_variant_has_no_shortcut(self):
        rng = np.random.default_rng(0)
        block = basic_block(8, 8, stride=1, rng=rng)
        assert block.shortcut is None

    def test_downsampling_variant_has_projection(self):
        rng = np.random.default_rng(0)
        block = basic_block(8, 16, stride=2, rng=rng)
        assert block.shortcut is not None

    def test_forward_shapes(self):
        rng = np.random.default_rng(0)
        block = basic_block(8, 16, stride=2, rng=rng)
        out = eager_forward(block, np.zeros((1, 8, 8, 8), dtype=np.float32))
        assert out.shape == (1, 16, 4, 4)


class TestBuildResnet18:
    def test_block_names_complete(self, small_model):
        assert tuple(small_model.blocks) == BLOCK_NAMES

    def test_forward_produces_logits(self, small_model):
        x = np.random.default_rng(1).normal(size=(2, 3, 16, 16)).astype(np.float32)
        logits = eager_forward(small_model, x)
        assert logits.shape == (2, 10)
        assert np.isfinite(logits).all()

    def test_features_shape(self, small_model):
        trunk = Sequential(*(small_model.blocks[n] for n in BLOCK_NAMES[:-1]))
        x = np.zeros((1, 3, 16, 16), dtype=np.float32)
        feats = compile_module(trunk, small_model.input_shape).forward(x)
        assert feats.shape == (1, 8 * 8, 2, 2)  # 8x width at 1/8 resolution

    def test_standard_width_param_count(self):
        """Full-width ResNet-18 has ~11.2M parameters (matching the
        canonical architecture arithmetic)."""
        model = build_resnet18(num_classes=60, input_size=32, width=64)
        assert 11.0e6 < model.param_count() < 11.5e6

    def test_channel_doubling_across_stages(self, small_model):
        shapes = {}
        shape = small_model.input_shape
        for name in BLOCK_NAMES:
            shape = small_model.blocks[name].output_shape(shape)
            shapes[name] = shape
        assert shapes["layer1"][0] * 2 == shapes["layer2"][0]
        assert shapes["layer2"][0] * 2 == shapes["layer3"][0]
        assert shapes["layer3"][0] * 2 == shapes["layer4"][0]

    def test_spatial_halving_across_stages(self, small_model):
        shape = small_model.input_shape
        for name in BLOCK_NAMES[:-1]:
            shape = small_model.blocks[name].output_shape(shape)
        # 16 px input, three stride-2 stages -> 2 px
        assert shape[1:] == (2, 2)

    def test_imagenet_stem_for_large_inputs(self):
        model = build_resnet18(num_classes=10, input_size=64, width=8)
        # 7x7 stride-2 conv + 3x3 stride-2 pool: 64 -> 16
        assert model.blocks["stem"].output_shape((3, 64, 64))[1:] == (16, 16)

    def test_flops_positive(self, small_model):
        assert small_model.flops() > 0

    def test_invalid_input_size_raises(self):
        with pytest.raises(ValueError):
            build_resnet18(input_size=4)

    def test_missing_block_raises(self, small_model):
        blocks = dict(small_model.blocks)
        del blocks["layer3"]
        with pytest.raises(ValueError, match="missing blocks"):
            ResNet18(blocks=blocks, input_shape=(3, 16, 16), num_classes=10)

    def test_deterministic_given_seed(self):
        a = build_resnet18(num_classes=5, input_size=16, width=8, seed=7)
        b = build_resnet18(num_classes=5, input_size=16, width=8, seed=7)
        x = np.random.default_rng(0).normal(size=(1, 3, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(eager_forward(a, x), eager_forward(b, x))

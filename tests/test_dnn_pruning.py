"""Unit tests for DepGraph-style structured pruning."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnn.compile import compile_module
from repro.dnn.configs import TABLE_I_CONFIGS
from repro.dnn.pruning import (
    build_dependency_graph,
    collect_groups,
    prune_resnet,
    pruned_channels,
)
from repro.dnn.resnet import build_resnet18
from tests.oracles import bfs_pruning_groups


def _model(width: int = 8, seed: int = 0):
    return build_resnet18(num_classes=10, input_size=16, width=width, seed=seed)


class TestPrunedChannels:
    def test_80pct_of_64(self):
        assert pruned_channels(64, 0.8) == 13

    def test_never_zero(self):
        assert pruned_channels(2, 0.9) == 1

    def test_zero_ratio_keeps_all(self):
        assert pruned_channels(64, 0.0) == 64

    def test_invalid_ratio_raises(self):
        with pytest.raises(ValueError):
            pruned_channels(64, 1.0)
        with pytest.raises(ValueError):
            pruned_channels(64, -0.1)


class TestDependencyGraph:
    def test_groups_have_consistent_sizes(self):
        model = _model()
        graph, members = build_dependency_graph(model, {"layer3", "layer4"})
        groups = collect_groups(graph, members)  # raises on inconsistency
        assert groups

    @pytest.mark.parametrize(
        "prunable",
        sorted({cfg.prunable_blocks for cfg in TABLE_I_CONFIGS.values()}),
    )
    def test_groups_match_breadth_first_components(self, prunable):
        model = _model()
        graph, members = build_dependency_graph(model, set(prunable))
        groups = [(g.name, g.size, g.members) for g in collect_groups(graph, members)]
        assert groups == bfs_pruning_groups(model, set(prunable))

    def test_members_do_not_depend_on_the_hash_seed(self):
        """Regression: ``collect_groups`` iterated a set of slot labels,
        so member order — and the float64 order ``importance`` sums in —
        changed with ``PYTHONHASHSEED`` (w8 {layer3, layer4}: seeds 1 and
        2 gave different member lists)."""
        script = (
            "from repro.dnn.pruning import build_dependency_graph, collect_groups\n"
            "from repro.dnn.resnet import BLOCK_NAMES, build_resnet18\n"
            "m = build_resnet18(num_classes=10, input_size=16, width=8, seed=0)\n"
            "pos = {id(l): i for i, l in enumerate(\n"
            "    l for b in BLOCK_NAMES for l in m.blocks[b].iter_layers())}\n"
            "for g in collect_groups(*build_dependency_graph(m, {'layer3', 'layer4'})):\n"
            "    print(g.name, [(pos[id(l)], r) for l, r in g.members],\n"
            "          [x.hex() for x in g.importance()])\n"
        )
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] and outputs[0] == outputs[1]

    def test_frozen_input_group_excluded(self):
        """Pruning only layer3 must not touch layer3's output channels
        (layer4 consumes them at fixed width)."""
        model = _model()
        before_l4_in = model.blocks["layer4"].layers[0].body.layers[0].in_channels
        prune_resnet(model, {"layer3"}, 0.8)
        after_l4_in = model.blocks["layer4"].layers[0].body.layers[0].in_channels
        assert before_l4_in == after_l4_in

    def test_layer1_output_frozen_when_stem_not_pruned(self):
        """layer1's first block has an identity shortcut tying its output
        to the (unpruned) stem output: the whole stage-output group must
        stay intact."""
        model = _model()
        out_before = model.blocks["layer1"].output_shape((8, 16, 16))
        prune_resnet(model, {"layer1"}, 0.8)
        assert model.blocks["layer1"].output_shape((8, 16, 16)) == out_before


class TestPruneResnet:
    @pytest.mark.parametrize(
        "stages",
        [{"layer4"}, {"layer3", "layer4"}, {"layer2", "layer3", "layer4"},
         {"layer1", "layer2", "layer3", "layer4"}],
    )
    def test_forward_still_works(self, stages):
        model = _model()
        prune_resnet(model, stages, 0.8)
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)
        out = compile_module(model).forward(x)
        assert out.shape == (2, 10)
        assert np.isfinite(out).all()

    def test_param_count_drops(self):
        model = _model(width=16)
        before = model.param_count()
        prune_resnet(model, {"layer3", "layer4"}, 0.8)
        after = model.param_count()
        assert after < 0.35 * before  # layer3+layer4 dominate parameters

    def test_deeper_pruning_removes_more(self):
        shallow = _model(width=16)
        deep = _model(width=16)
        prune_resnet(shallow, {"layer4"}, 0.8)
        prune_resnet(deep, {"layer3", "layer4"}, 0.8)
        assert deep.param_count() < shallow.param_count()

    def test_higher_ratio_removes_more(self):
        light = _model(width=16)
        heavy = _model(width=16)
        prune_resnet(light, {"layer4"}, 0.5)
        prune_resnet(heavy, {"layer4"}, 0.8)
        assert heavy.param_count() < light.param_count()

    def test_flops_drop(self):
        model = _model(width=16)
        before = model.flops()
        prune_resnet(model, {"layer3", "layer4"}, 0.8)
        assert model.flops() < before

    def test_unknown_stage_raises(self):
        with pytest.raises(ValueError, match="unknown or unprunable"):
            prune_resnet(_model(), {"stem"}, 0.8)

    def test_empty_stage_set_is_noop(self):
        model = _model()
        before = model.param_count()
        assert prune_resnet(model, set(), 0.8) == 0
        assert model.param_count() == before

    def test_keeps_highest_magnitude_channels(self):
        model = _model()
        conv1 = model.blocks["layer4"].layers[0].body.layers[0]
        # inflate a specific internal channel so it must survive
        conv1.weight[5] *= 100.0
        strong = conv1.weight[5].copy()
        prune_resnet(model, {"layer4"}, 0.8)
        norms = np.sqrt((conv1.weight ** 2).sum(axis=(1, 2, 3)))
        assert np.isclose(norms.max(), np.sqrt((strong ** 2).sum()), rtol=1e-5)

    @given(st.sampled_from([0.2, 0.5, 0.8]), st.integers(min_value=0, max_value=10))
    @settings(max_examples=6, deadline=None)
    def test_prune_preserves_runnability_property(self, ratio, seed):
        model = _model(seed=seed)
        prune_resnet(model, {"layer3", "layer4"}, ratio)
        x = np.random.default_rng(seed).normal(size=(1, 3, 16, 16)).astype(np.float32)
        assert np.isfinite(compile_module(model).forward(x)).all()


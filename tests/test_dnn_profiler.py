"""Unit tests for the block profiler."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.dnn.profiler import profile_model, time_forward
from repro.dnn.pruning import prune_resnet
from repro.dnn.resnet import BLOCK_NAMES, build_resnet18


@pytest.fixture(scope="module")
def profile():
    model = build_resnet18(num_classes=10, input_size=16, width=8, seed=0)
    return profile_model(model, repeats=2, warmup=1)


class TestProfileModel:
    def test_all_blocks_profiled_in_order(self, profile):
        assert tuple(b.name for b in profile.blocks) == BLOCK_NAMES

    def test_times_positive(self, profile):
        assert all(b.compute_time_s > 0 for b in profile.blocks)

    def test_totals_are_sums(self, profile):
        assert profile.total_compute_time_s == pytest.approx(
            sum(b.compute_time_s for b in profile.blocks)
        )
        assert profile.total_flops == sum(b.flops for b in profile.blocks)
        assert profile.total_params == sum(b.params for b in profile.blocks)

    def test_param_bytes_are_4x_params(self, profile):
        for block in profile.blocks:
            assert block.param_bytes == 4 * block.params

    def test_memory_includes_activations(self, profile):
        for block in profile.blocks:
            assert block.memory_bytes == block.param_bytes + block.activation_bytes
            assert block.memory_gb == pytest.approx(block.memory_bytes / 1e9)

    def test_block_lookup(self, profile):
        assert profile.block("layer2").name == "layer2"
        with pytest.raises(KeyError):
            profile.block("nope")

    def test_total_params_match_model(self):
        model = build_resnet18(num_classes=10, input_size=16, width=8)
        prof = profile_model(model, repeats=1)
        assert prof.total_params == model.param_count()

    def test_pruned_model_profiles_cheaper(self):
        full = build_resnet18(num_classes=10, input_size=16, width=16, seed=0)
        pruned = build_resnet18(num_classes=10, input_size=16, width=16, seed=0)
        prune_resnet(pruned, {"layer3", "layer4"}, 0.8)
        p_full = profile_model(full, repeats=1)
        p_pruned = profile_model(pruned, repeats=1)
        assert p_pruned.total_params < p_full.total_params
        assert p_pruned.total_flops < p_full.total_flops

    def test_layer4_has_most_params(self, profile):
        params = {b.name: b.params for b in profile.blocks}
        assert params["layer4"] == max(
            params[n] for n in BLOCK_NAMES if n != "layer4"
        ) or params["layer4"] > max(
            params[n] for n in BLOCK_NAMES if n != "layer4"
        )


class TestOneEngine:
    def test_there_is_no_eager_mode(self):
        model = build_resnet18(num_classes=10, input_size=16, width=8, seed=0)
        with pytest.raises(ValueError, match="compiled=False"):
            profile_model(model, compiled=False)

    def test_int8_blocks_calibrate_as_the_runner_compiles_them(self, monkeypatch):
        """Regression: the profiler calibrated every int8 block alone on
        noise at its own input shape, so it timed plans the runner never
        runs.  Both hand each block the fp32 output of the plan before it.
        Called the way the served-work benchmark calls them."""
        from repro.core.catalog import Block, Path
        from repro.core.task import QualityLevel
        from repro.dnn import compile as engine
        from repro.serving import BlockwiseRunner

        model = build_resnet18(num_classes=10, input_size=16, width=8, seed=0)
        seen = []
        compile_module = engine.compile_module

        def spy(module, input_shape=None, quantize=None, calibration=None):
            seen.append(calibration)
            return compile_module(module, input_shape, quantize, calibration)

        monkeypatch.setattr(engine, "compile_module", spy)
        profile_model(
            model, repeats=1, warmup=0, compiled=True, quantize="int8",
            clock=time.perf_counter,
        )
        profiled = seen.copy()
        seen.clear()
        path = Path(
            "m", "m", 1, tuple(Block(name, "m", 1e-3, 1e-3) for name in BLOCK_NAMES),
            0.9, QualityLevel(name="full", bits_per_image=1.0),
        )
        runner = BlockwiseRunner(
            modules=dict(model.blocks), compile_blocks=True, quantize="int8"
        )
        runner.run(path, np.zeros((1, *model.input_shape), dtype=np.float32))
        assert [c is None for c in profiled] == [c is None for c in seen] == [
            i == 0 for i in range(len(BLOCK_NAMES))
        ]
        for ours, theirs in zip(profiled[1:], seen[1:]):
            np.testing.assert_array_equal(ours, theirs)


class TestTimeForward:
    def test_returns_positive_median(self):
        calls = []

        def fn(x):
            calls.append(1)

        elapsed = time_forward(fn, np.zeros(1), repeats=3, warmup=1)
        assert elapsed >= 0
        assert len(calls) == 4  # warmup + repeats

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            time_forward(lambda x: None, np.zeros(1), repeats=0)

"""Unit tests for the DNN repository (profiled configs -> DOT paths)."""

from __future__ import annotations

import pytest

from repro.core.catalog import INT8_ACCURACY_DROP, Catalog
from repro.core.task import QualityLevel, Task
from repro.dnn.repository import (
    BLOCK_GROUPS,
    build_task_paths,
    profile_table_i,
)


@pytest.fixture(scope="module")
def profiled():
    return profile_table_i(width=8, input_size=16, repeats=1)


@pytest.fixture(scope="module")
def quality():
    return QualityLevel(name="full", bits_per_image=350_000.0)


def _task(task_id: int, quality: QualityLevel) -> Task:
    return Task(
        task_id=task_id,
        name=f"t{task_id}",
        method="classification",
        priority=0.5,
        request_rate=5.0,
        min_accuracy=0.5,
        max_latency_s=0.5,
        qualities=(quality,),
    )


class TestProfileTableI:
    def test_all_ten_configs(self, profiled):
        assert len(profiled) == 10

    def test_four_groups_each(self, profiled):
        for pc in profiled.values():
            assert len(pc.groups) == len(BLOCK_GROUPS) == 4

    def test_config_a_nothing_shared(self, profiled):
        assert all(not g.shared for g in profiled["CONFIG A"].groups)

    def test_config_b_shares_first_three_groups(self, profiled):
        shared = [g.shared for g in profiled["CONFIG B"].groups]
        assert shared == [True, True, True, False]  # g4 carries the head

    def test_shared_groups_cost_zero_training(self, profiled):
        for pc in profiled.values():
            for group in pc.groups:
                if group.shared:
                    assert group.training_cost_s == 0.0
                else:
                    assert group.training_cost_s >= 0.0

    def test_shared_groups_identical_across_configs(self, profiled):
        """Shared groups must come from a single base measurement."""
        b_g1 = profiled["CONFIG B"].groups[0]
        c_g1 = profiled["CONFIG C"].groups[0]
        assert b_g1.compute_time_s == c_g1.compute_time_s
        assert b_g1.memory_gb == c_g1.memory_gb
        assert b_g1.batch_marginal == c_g1.batch_marginal

    def test_pruned_configs_cost_less_memory(self, profiled):
        full = profiled["CONFIG A"].total_memory_gb
        pruned = profiled["CONFIG A-pruned"].total_memory_gb
        assert pruned < 0.3 * full

    def test_accuracy_in_unit_interval(self, profiled):
        for pc in profiled.values():
            assert 0.0 <= pc.accuracy <= 1.0

    def test_pruned_accuracy_not_higher(self, profiled):
        for letter in "ABCDE":
            assert (
                profiled[f"CONFIG {letter}-pruned"].accuracy
                <= profiled[f"CONFIG {letter}"].accuracy + 1e-12
            )


class TestBuildTaskPaths:
    def test_one_path_per_config(self, profiled, quality):
        paths = build_task_paths(_task(1, quality), profiled, quality)
        assert len(paths) == 10

    def test_paths_have_four_blocks(self, profiled, quality):
        for path in build_task_paths(_task(1, quality), profiled, quality):
            assert len(path.blocks) == 4

    def test_shared_blocks_have_base_ids(self, profiled, quality):
        paths = {p.path_id: p for p in build_task_paths(_task(1, quality), profiled, quality)}
        config_b = paths["task1:CONFIG B"]
        base_blocks = [b for b in config_b.blocks if b.block_id.startswith("base:")]
        assert len(base_blocks) == 3

    def test_two_tasks_share_base_blocks(self, profiled, quality):
        catalog = Catalog()
        for tid in (1, 2):
            for path in build_task_paths(_task(tid, quality), profiled, quality):
                catalog.add_path(path)
        blocks = catalog.all_blocks()
        # exactly three distinct shared base blocks despite two tasks
        assert sum(1 for b in blocks if b.startswith("base:")) == 3

    def test_task_specific_blocks_not_shared(self, profiled, quality):
        paths_1 = build_task_paths(_task(1, quality), profiled, quality)
        paths_2 = build_task_paths(_task(2, quality), profiled, quality)
        ids_1 = {b.block_id for p in paths_1 for b in p.blocks if not b.block_id.startswith("base:")}
        ids_2 = {b.block_id for p in paths_2 for b in p.blocks if not b.block_id.startswith("base:")}
        assert not ids_1 & ids_2

    def test_scaling_applied(self, profiled, quality):
        plain = build_task_paths(_task(1, quality), profiled, quality)
        scaled = build_task_paths(
            _task(1, quality), profiled, quality, memory_scale=10.0, compute_scale=2.0
        )
        for a, b in zip(plain, scaled):
            assert b.compute_time_s == pytest.approx(2.0 * a.compute_time_s)

    def test_accuracy_offset_clipped(self, profiled, quality):
        paths = build_task_paths(
            _task(1, quality), profiled, quality, accuracy_offset=2.0
        )
        assert all(p.accuracy == 1.0 for p in paths)


class TestInt8Variants:
    """Quantized Table I variants: precision-aware profiling + sharing."""

    @pytest.fixture(scope="class")
    def with_int8(self):
        return profile_table_i(
            width=8, input_size=16, repeats=1, include_int8=True
        )

    def test_int8_doubles_the_catalog(self, with_int8):
        assert len(with_int8) == 20
        assert sum(1 for pc in with_int8.values() if pc.precision == "int8") == 10

    def test_int8_variants_tagged_and_cheaper_in_memory(self, with_int8):
        for name, pc in with_int8.items():
            if not name.endswith("-int8"):
                assert pc.precision == "fp32"
                continue
            assert pc.precision == "int8"
            fp32 = with_int8[name.removesuffix("-int8")]
            # int8 weights are 4x smaller; activations 1 byte vs 4 —
            # total m(s) lands well under half the fp32 footprint
            assert pc.total_memory_gb < 0.5 * fp32.total_memory_gb
            # quantization costs the documented accuracy drop
            assert pc.accuracy == pytest.approx(fp32.accuracy - INT8_ACCURACY_DROP)

    def test_int8_shared_blocks_live_in_own_namespace(self, with_int8, quality):
        paths = {
            p.path_id: p
            for p in build_task_paths(_task(1, quality), with_int8, quality)
        }
        int8_b = paths["task1:CONFIG B-int8"]
        fp32_b = paths["task1:CONFIG B"]
        int8_shared = {
            b.block_id for b in int8_b.blocks if "base" in b.block_id
        }
        fp32_shared = {
            b.block_id for b in fp32_b.blocks if "base" in b.block_id
        }
        assert all(b.startswith("base:int8:") for b in int8_shared)
        assert not int8_shared & fp32_shared  # never cross-precision

    def test_blocks_are_charged_their_own_measured_batch_law(self, with_int8, quality):
        """Profile → group → block → window cost: a fused batch of one path
        costs what its configuration measured, in its own precision."""
        from repro.serving.executor import _window_costs

        paths = build_task_paths(_task(1, quality), with_int8, quality)
        laws = set()
        for path, pc in zip(paths, with_int8.values()):
            assert [b.batch_marginal for b in path.blocks] == [
                g.batch_marginal for g in pc.groups
            ]
            assert all(g.batch_marginal >= 0.0 for g in pc.groups)
            fused, _, _ = _window_costs([(path.path_id, path.blocks, 8)])
            assert fused == pytest.approx(
                pc.total_compute_time_s * (1.0 + 7 * pc.batch_marginal)
            )
            laws.add((pc.precision, pc.batch_marginal))
        # measured per configuration and precision, not one constant
        assert len(laws) > len(with_int8) // 2

    def test_exact_int8_weight_byte_math(self):
        """Pin the conv byte math: fp32 fused conv stores 4*(o*c*k*k)
        weight bytes + 4*o bias; int8 stores o*c*k*k int8 bytes + 8*o
        (f32 requant scale + bias columns).  The fp32->int8 saving over
        a whole ResNet-18 plan must equal the per-conv formula summed
        exactly — any drift means m(s) is no longer dtype-aware."""
        from repro.dnn.compile import compile_module
        from repro.dnn.layers import Conv2d
        from repro.dnn.quantize import plan_param_bytes
        from repro.dnn.resnet import build_resnet18

        model = build_resnet18(num_classes=10, input_size=16, width=8, seed=0)
        fp32_bytes = plan_param_bytes(compile_module(model))
        int8_bytes = compile_module(model, quantize="int8").param_bytes()

        def walk(layer):
            yield layer
            children = getattr(layer, "children", None)
            if children is not None:
                for child in children():
                    yield from walk(child)

        expected_saving = 0
        for layer in walk(model._as_sequential):
            if isinstance(layer, Conv2d):
                o, c, k, _ = layer.weight.shape
                expected_saving += (4 * o * c * k * k + 4 * o) - (
                    o * c * k * k + 8 * o
                )
        assert fp32_bytes - int8_bytes == expected_saving
        assert fp32_bytes == 703_208 and int8_bytes == 181_952

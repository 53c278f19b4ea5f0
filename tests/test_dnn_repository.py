"""Unit tests for the DNN repository (Table I configs -> measured group costs)."""

from __future__ import annotations

import pytest

from repro.core.catalog import INT8_ACCURACY_DROP, Block
from repro.dnn.repository import BLOCK_GROUPS, profile_table_i


@pytest.fixture(scope="module")
def with_int8():
    return profile_table_i(width=8, input_size=16, repeats=1, include_int8=True)


@pytest.fixture(scope="module")
def profiled(with_int8):
    return {name: pc for name, pc in with_int8.items() if pc.precision == "fp32"}


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


class TestInt8Variants:
    """Quantized Table I variants: precision-aware profiling + sharing."""

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

    def test_blocks_are_charged_their_own_measured_batch_law(self, with_int8):
        """Profile → group → block → window cost: a fused batch of one path
        costs what its configuration measured, in its own precision."""
        from repro.serving.executor import _window_costs

        laws = set()
        for name, pc in with_int8.items():
            assert all(g.batch_marginal >= 0.0 for g in pc.groups)
            blocks = tuple(
                Block(
                    f"{name}:{g.group}", name, g.compute_time_s, g.memory_gb,
                    batch_marginal=g.batch_marginal,
                )
                for g in pc.groups
            )
            fused, _, _ = _window_costs([(name, blocks, 8)])
            assert fused == pytest.approx(
                pc.total_compute_time_s * (1.0 + 7 * pc.batch_marginal)
            )
            laws.add((pc.precision, pc.batch_marginal))
        # measured per configuration and precision, not one constant
        assert len(laws) > len(with_int8) // 2

    def test_every_timed_block_is_a_compiled_plan(self, monkeypatch):
        """Regression: with no flags, the mixed catalog timed fp32 blocks
        as eager forwards and int8 blocks as compiled plans, so int8 read
        0.35-0.49x fp32 where the engine runs it at 1.44-1.49x — the
        precision trade-off backwards."""
        from repro.dnn import profiler
        from repro.dnn.compile import CompiledModule
        from repro.dnn.configs import TABLE_I_CONFIGS
        from repro.dnn.graph import Sequential

        timed = []
        time_forward = profiler.time_forward

        def spy_time_forward(fn, x, **kwargs):
            timed.append(fn.__self__)
            return time_forward(fn, x, **kwargs)

        monkeypatch.setattr(profiler, "time_forward", spy_time_forward)
        configs = {name: TABLE_I_CONFIGS[name] for name in ("CONFIG A", "CONFIG C-pruned")}
        profiled = profile_table_i(
            width=8, input_size=16, repeats=1, configs=configs, include_int8=True
        )
        assert len(profiled) == 4
        # base + 2 configs per precision, 6 blocks, batch 1 and the law's batch
        assert len(timed) == 2 * 3 * 6 * 2
        assert all(isinstance(plan, CompiledModule) for plan in timed)
        assert {plan.precision for plan in timed} == {"fp32", "int8"}
        # and a module has no forward to fall back to
        assert not hasattr(Sequential, "forward")

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

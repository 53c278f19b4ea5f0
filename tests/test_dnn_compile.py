"""Compiled engine: numerical parity with the eager oracle, interface.

The compiled plan (BN folding, fused conv kernels, buffer arenas) must
compute what the unfused layer-by-layer forward in ``tests/oracles.py``
computes: same outputs to float32 tolerance, same ``flops`` /
``output_shape`` arithmetic as its source module, stable across repeated
calls on reused buffers.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.dnn import ops
from repro.dnn import compile as compile_mod
from repro.dnn.compile import (
    _ALIGN,
    CompiledModule,
    _Arena,
    _iter_steps,
    _lifetimes,
    _thread_arena,
    compile_module,
    fold_batch_norm,
)
from repro.dnn.configs import TABLE_I_CONFIGS
from repro.dnn.graph import Sequential
from repro.dnn.layers import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Layer,
    Linear,
    ReLU,
    ReLU6,
)
from repro.dnn.mobilenet import build_mobilenetv2
from repro.dnn.pruning import prune_resnet
from repro.dnn.resnet import build_resnet18
from tests.oracles import eager_forward, fresh_forward

PARITY_TOL = 1e-4


def _randomize_bn(module, rng, spread=0.5):
    """Give every BN non-trivial statistics so folding is actually tested.

    ``spread`` bounds how far gamma/var stray from 1 — deep stacks
    (MobileNetV2 has ~35 BNs) need modest per-layer gain or activations
    amplify until plain float32 accumulation error breaks the eager
    oracle too, which is not what this suite is measuring.
    """
    for layer in module.iter_layers():
        if isinstance(layer, BatchNorm2d):
            c = layer.channels
            layer.gamma = rng.uniform(1 - spread, 1 + spread, c).astype(np.float32)
            layer.beta = rng.normal(0.0, 0.2, c).astype(np.float32)
            layer.running_mean = rng.normal(0.0, 0.5, c).astype(np.float32)
            layer.running_var = rng.uniform(1 - spread, 1 + spread, c).astype(
                np.float32
            )


def _assert_parity(model, batch_sizes=(1, 8), tol=PARITY_TOL, bn_spread=0.5):
    """``bn_spread=None`` keeps the model's initial BN statistics."""
    rng = np.random.default_rng(0)
    seq = model._as_sequential
    if bn_spread is not None:
        _randomize_bn(seq, rng, spread=bn_spread)
    compiled = compile_module(model)
    for n in batch_sizes:
        x = rng.standard_normal((n, *model.input_shape), dtype=np.float32)
        eager = eager_forward(seq, x)
        fused = compiled.forward(x)
        assert fused.shape == eager.shape
        assert float(np.abs(fused - eager).max()) < tol


class TestResNetParity:
    @pytest.mark.parametrize("name", sorted(TABLE_I_CONFIGS))
    def test_all_table_i_configs(self, name):
        config = TABLE_I_CONFIGS[name]
        model = build_resnet18(num_classes=10, input_size=16, width=8, seed=0)
        if config.pruned:
            prune_resnet(model, set(config.prunable_blocks), config.prune_ratio)
        _assert_parity(model)

    def test_large_input_stem_with_maxpool(self):
        # >= 64 px uses the 7x7/stride-2 stem + 3x3 maxpool variant
        model = build_resnet18(num_classes=10, input_size=64, width=8, seed=1)
        _assert_parity(model)

    def test_heavily_pruned_variant(self):
        model = build_resnet18(num_classes=10, input_size=16, width=16, seed=2)
        prune_resnet(model, {"layer1", "layer2", "layer3", "layer4"}, 0.8)
        _assert_parity(model)


class TestUntouchedStatistics:
    """The engine benchmark's quick-run models (Table I A, C and
    C-pruned at width 8, MobileNetV2 x0.25, 16 px) at their initial BN
    statistics."""

    @pytest.mark.parametrize("name", ["CONFIG A", "CONFIG C", "CONFIG C-pruned"])
    def test_table_i_configs(self, name):
        config = TABLE_I_CONFIGS[name]
        model = build_resnet18(num_classes=10, input_size=16, width=8, seed=0)
        if config.pruned:
            prune_resnet(model, set(config.prunable_blocks), config.prune_ratio)
        _assert_parity(model, bn_spread=None)

    def test_mobilenet(self):
        model = build_mobilenetv2(
            num_classes=10, input_size=16, width_multiplier=0.25, seed=0
        )
        _assert_parity(model, bn_spread=None)


class TestMobileNetParity:
    @pytest.mark.parametrize("mult", [0.25, 0.5])
    def test_width_multipliers(self, mult):
        model = build_mobilenetv2(
            num_classes=10, input_size=16, width_multiplier=mult, seed=0
        )
        _assert_parity(model, bn_spread=0.1)


class TestStridesAndPaddings:
    @pytest.mark.parametrize("kernel,stride,padding", [
        (1, 1, 0),
        (1, 2, 0),
        (3, 1, 1),
        (3, 2, 1),
        (5, 1, 2),
        (3, 1, 0),
    ])
    def test_fused_conv_geometries(self, kernel, stride, padding):
        rng = np.random.default_rng(3)
        seq = Sequential(
            Conv2d(3, 6, kernel=kernel, stride=stride, padding=padding, rng=rng),
            BatchNorm2d(6),
            ReLU(),
        )
        _randomize_bn(seq, rng)
        compiled = compile_module(seq, (3, 12, 12))
        for n in (1, 8):
            x = rng.standard_normal((n, 3, 12, 12), dtype=np.float32)
            diff = np.abs(compiled.forward(x) - eager_forward(seq, x)).max()
            assert float(diff) < PARITY_TOL

    @pytest.mark.parametrize("stride", [1, 2])
    def test_fused_depthwise_geometries(self, stride):
        rng = np.random.default_rng(4)
        seq = Sequential(
            DepthwiseConv2d(5, kernel=3, stride=stride, padding=1, rng=rng),
            BatchNorm2d(5),
            ReLU6(),
        )
        _randomize_bn(seq, rng)
        compiled = compile_module(seq, (5, 9, 9))
        for n in (1, 8):
            x = rng.standard_normal((n, 5, 9, 9), dtype=np.float32)
            diff = np.abs(compiled.forward(x) - eager_forward(seq, x)).max()
            assert float(diff) < PARITY_TOL


class TestInterface:
    def _model(self):
        return build_resnet18(num_classes=10, input_size=16, width=8, seed=0)

    def test_flops_and_output_shape_match_eager(self):
        model = self._model()
        seq = model._as_sequential
        compiled = compile_module(model)
        shape = model.input_shape
        assert compiled.flops(shape) == seq.flops(shape)
        assert compiled.output_shape(shape) == seq.output_shape(shape)
        assert compiled.activation_size(shape) == seq.activation_size(shape)

    def test_is_drop_in_layer(self):
        compiled = compile_module(self._model())
        assert isinstance(compiled, CompiledModule)
        assert compiled.kind == "compiled"
        assert len(compiled.parameters()) > 0

    def test_repeated_calls_are_stable(self):
        # plan buffers are reused across calls; outputs must not decay
        compiled = compile_module(self._model())
        x = np.random.default_rng(5).standard_normal((2, 3, 16, 16), dtype=np.float32)
        first = compiled.forward(x)
        for _ in range(3):
            np.testing.assert_array_equal(compiled.forward(x), first)

    def test_outputs_are_owned_copies(self):
        compiled = compile_module(self._model())
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 3, 16, 16), dtype=np.float32)
        first = compiled.forward(x)
        snapshot = first.copy()
        compiled.forward(rng.standard_normal((1, 3, 16, 16), dtype=np.float32))
        np.testing.assert_array_equal(first, snapshot)

    def test_wrong_input_shape_rejected(self):
        compiled = compile_module(self._model())
        with pytest.raises(ValueError):
            compiled.forward(np.zeros((1, 3, 8, 8), dtype=np.float32))

    def test_plan_fuses_all_batchnorms(self):
        compiled = compile_module(self._model())
        labels = [step.label for step in _iter_steps(compiled.steps)]
        assert labels
        assert not any(label.endswith("batchnorm") for label in labels)
        assert any("conv" in label and "+bn" in label for label in labels)

    def test_released_arena_then_rerun(self):
        compiled = compile_module(self._model())
        x = np.random.default_rng(7).standard_normal((2, 3, 16, 16), dtype=np.float32)
        first = compiled.forward(x)
        arena = _thread_arena()
        assert arena.nbytes > 0 and arena.bound
        arena.release()
        assert arena.nbytes == 0 and not arena.bound
        np.testing.assert_array_equal(compiled.forward(x), first)
        assert arena.nbytes > 0

    @pytest.mark.parametrize("engine", ["eager", "fp32", "int8"])
    def test_empty_batch_gives_empty_logits(self, engine):
        """Regression: every flatten reshaped by ``(n, -1)``, which numpy
        rejects for n = 0, so ResNet-18 raised in all three engines."""
        model = build_resnet18(num_classes=7, input_size=16, width=8, seed=0)
        x = np.zeros((0, *model.input_shape), dtype=np.float32)
        if engine == "eager":
            out = eager_forward(model, x)
        else:
            quantize = "int8" if engine == "int8" else None
            out = compile_module(model, quantize=quantize).forward(x)
        assert out.shape == (0, 7)

    def test_compile_rejects_non_layer(self):
        with pytest.raises(TypeError):
            compile_module(object())

    def test_unsupported_layer_type_is_named(self):
        """A layer the compiler has no step for is an error, not an
        unfused fallback nobody priced."""

        class Swish(Layer):
            kind = "swish"

            def output_shape(self, input_shape):
                return input_shape

        seq = Sequential(Conv2d(3, 4, kernel=3, padding=1), Swish())
        with pytest.raises(TypeError, match="Swish"):
            compile_module(seq, (3, 8, 8))

    def test_compile_layer_requires_input_shape(self):
        with pytest.raises(ValueError):
            compile_module(Sequential(ReLU()))

    def test_module_compile_hook(self):
        seq = Sequential(Conv2d(3, 4, kernel=3, stride=1, padding=1), ReLU())
        compiled = compile_module(seq, (3, 8, 8))
        x = np.random.default_rng(8).standard_normal((1, 3, 8, 8), dtype=np.float32)
        assert float(np.abs(compiled.forward(x) - eager_forward(seq, x)).max()) < PARITY_TOL

    def test_blockwise_model_compile_hook(self):
        model = self._model()
        compiled = compile_module(model)
        assert compiled.input_shape == tuple(model.input_shape)
        assert not hasattr(model, "compile")  # compile_module is the one entry


class TestFoldBatchNorm:
    def test_folding_matches_sequential_application(self):
        rng = np.random.default_rng(9)
        conv = Conv2d(3, 4, kernel=3, stride=1, padding=1, rng=rng)
        bn = BatchNorm2d(4)
        seq = Sequential(conv, bn)
        _randomize_bn(seq, rng)
        w, b = fold_batch_norm(conv.weight, conv.bias, bn)
        folded = Conv2d(3, 4, kernel=3, stride=1, padding=1)
        folded.weight, folded.bias = w, b
        x = rng.standard_normal((2, 3, 8, 8), dtype=np.float32)
        diff = eager_forward(folded, x) - eager_forward(seq, x)
        assert float(np.abs(diff).max()) < PARITY_TOL


class TestLinearStep:
    """A compiled linear layer lays its transposed weight out once, at
    compile time: the plan is a snapshot of the layer's parameters."""

    @staticmethod
    def _step(plan):
        (step,) = [s for s in _iter_steps(plan.steps) if s.label == "linear"]
        return step

    def test_transposed_weight_is_contiguous_and_correct(self):
        layer = Linear(6, 4)
        step = self._step(compile_module(layer, (6,)))
        assert step.w_t.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(step.w_t, layer.weight.T)

    def test_forward_matches_manual_gemm(self):
        layer = Linear(6, 4)
        x = np.random.default_rng(10).standard_normal((3, 6), dtype=np.float32)
        np.testing.assert_allclose(
            compile_module(layer, (6,)).forward(x),
            x @ layer.weight.T + layer.bias,
            atol=1e-6,
        )

    def test_reassigned_weight_reaches_the_next_plan_only(self):
        layer = Linear(6, 4)
        x = np.random.default_rng(11).standard_normal((2, 6), dtype=np.float32)
        before = compile_module(layer, (6,))
        expected = before.forward(x)
        layer.weight = np.ones((4, 6), dtype=np.float32)
        np.testing.assert_array_equal(before.forward(x), expected)
        np.testing.assert_allclose(
            compile_module(layer, (6,)).forward(x),
            x @ layer.weight.T + layer.bias,
            atol=1e-6,
        )

    def test_in_place_parameter_update_reaches_a_recompiled_plan(self):
        # fine-tuning mutates the arrays returned by parameters() in place
        layer = Linear(6, 4)
        before = self._step(compile_module(layer, (6,))).w_t.copy()
        params = layer.parameters()
        params[0][...] = 2.0
        after = self._step(compile_module(layer, (6,))).w_t
        np.testing.assert_array_equal(after, np.full((6, 4), 2.0, np.float32))
        assert not np.array_equal(before, after)


class TestChunkedConv:
    """An fp32 conv gathers and multiplies its batch through an im2col
    scratch of at most ``_COLS_CAP`` bytes, a chunk of samples at a time;
    the GEMMs are per sample either way, so every output bit is the
    whole-batch kernel's."""

    SHAPE = (4, 9, 9)

    @pytest.mark.parametrize(
        "kernel, stride, padding", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)]
    )
    # scratch cap in samples: the module's, 3 (divides neither 8 nor 32),
    # and less than one sample needs (chunks of one)
    @pytest.mark.parametrize("cap_samples", [None, 3.5, 0.5])
    def test_chunks_equal_the_whole_batch_kernel(
        self, monkeypatch, kernel, stride, padding, cap_samples
    ):
        rng = np.random.default_rng(21)
        conv = Conv2d(4, 6, kernel, stride, padding, bias=True, rng=rng)
        conv.bias = rng.normal(size=6).astype(np.float32)
        plan = compile_module(Sequential(conv, ReLU()), self.SHAPE)
        (step,) = plan.steps
        need = 4 * step.cols_elems  # bytes of one sample's columns
        if cap_samples is not None:
            monkeypatch.setattr(compile_mod, "_COLS_CAP", int(cap_samples * need))
        for n in (1, 3, 8, 32):
            x = rng.standard_normal((n, *self.SHAPE), dtype=np.float32)
            padded = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
            whole = ops.conv2d_fused(
                padded, step.w_mat, step.bias, kernel, stride, *step.out_shape[1:],
                out=np.empty((n, *step.out_shape), dtype=np.float32),
                cols=np.empty(n * step.cols_elems, dtype=np.float32),
                activation="relu",
            )
            binding = plan._bind(_Arena(), n)
            chunk = binding.bufs[step][3]
            if cap_samples is not None and need:
                assert chunk == min(n, max(1, int(cap_samples)))
            assert binding.cols.nbytes == (chunk * need if need else 0)
            np.testing.assert_array_equal(fresh_forward(plan, x), whole)
            np.testing.assert_array_equal(plan.forward(x), whole)

    def test_scratch_is_sized_by_the_cap_not_the_batch(self):
        """ResNet-18 w32 ``layer1`` at n = 32 used to bind 36 MB of columns."""
        model = build_resnet18(num_classes=10, input_size=32, width=32, seed=0)
        plan = compile_module(model.blocks["layer1"], (32, 32, 32))
        one_sample = 4 * 32 * 9 * 32 * 32
        for n in (1, 8, 32):
            cols = plan._bind(_Arena(), n).cols.nbytes
            assert cols == min(n, compile_mod._COLS_CAP // one_sample) * one_sample
            assert cols <= compile_mod._COLS_CAP


def _arena_plans():
    """Three plans of different shapes and both precisions."""
    wide = build_resnet18(num_classes=5, input_size=16, width=16, seed=0)
    narrow = build_resnet18(num_classes=5, input_size=16, width=8, seed=1)
    prune_resnet(narrow, {"layer2", "layer3"}, 0.5)
    return [
        compile_module(wide),
        compile_module(wide, quantize="int8"),
        compile_module(narrow, quantize="int8"),
    ]


class TestArena:
    """One thread-local arena under every plan and batch size: the
    steady-state forward must equal the same bound steps on brand-new
    memory (``oracles.fresh_forward``), whatever ran in between."""

    SIZES = (1, 8, 32, 1)  # growth, then a rebind at the first size

    def test_interleaved_plans_match_fresh_memory(self):
        plans = _arena_plans()
        rng = np.random.default_rng(12)
        _thread_arena().release()  # this thread's arena starts empty
        for n in self.SIZES:
            for plan in plans:
                x = rng.standard_normal((n, *plan.input_shape), dtype=np.float32)
                expected = fresh_forward(plan, x)
                np.testing.assert_array_equal(plan.forward(x), expected)
                # and again on the now-bound views
                np.testing.assert_array_equal(plan.forward(x), expected)

    def test_arena_holds_one_plans_worth(self):
        plans = _arena_plans()
        _thread_arena().release()
        needs = []
        for n in self.SIZES:
            for plan in plans:
                plan.forward(np.zeros((n, *plan.input_shape), dtype=np.float32))
                alone = _Arena()
                plan._bind(alone, n)
                needs.append(alone.nbytes)
        # counted from the arena, not from RSS: pads live in the block,
        # which is exactly the largest single need
        assert _thread_arena().nbytes == max(needs)

    def test_growth_rebinds_every_plan(self):
        small, _, other = _arena_plans()
        _thread_arena().release()
        arena = _thread_arena()
        x1 = np.zeros((1, *small.input_shape), dtype=np.float32)
        small.forward(x1)
        other.forward(x1)
        block = arena.block
        assert set(arena.bound) == {small, other}
        small.forward(np.zeros((32, *small.input_shape), dtype=np.float32))
        # the block was replaced: no binding made on the old one survives
        assert arena.block is not block
        assert set(arena.bound) == {small} and set(arena.bound[small]) == {32}
        views = [arena.bound[small][32].cols, arena.bound[small][32].tmp]
        views += [buf[2] for buf in arena.bound[small][32].bufs.values()]
        assert all(
            np.shares_memory(view, arena.block)
            for view in views
            if view is not None and view.size  # fp32 plans need no temp
        )

    def test_growth_frees_the_old_block_first(self):
        """Regression: ``reserve`` allocated the larger block while the
        arena still held the old one, so a grow peaked at old + new."""
        old, new = 8 << 20, 12 << 20
        tracemalloc.start()
        try:
            arena = _Arena()
            arena.reserve(old)
            tracemalloc.reset_peak()
            arena.reserve(new)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert arena.block.nbytes == new
        assert new <= peak <= new + _ALIGN + 4096  # not old + new

    @pytest.mark.parametrize("index", [0, 1])
    def test_pad_borders_survive_another_plan(self, index):
        """Plan A, a plan of another geometry over the same block, then A
        again: both of A's outputs bit-equal to fresh memory's.  The other
        plan leaves data where A's pad borders lie, so this fails when
        ``_Binding.enter`` skips the zero."""
        plans = _arena_plans()
        plan, other = plans[index], plans[2]
        _thread_arena().release()
        rng = np.random.default_rng(14)
        n = 8
        xs = [rng.standard_normal((n, *p.input_shape), dtype=np.float32) for p in plans]
        expected = fresh_forward(plan, xs[index])
        other.forward(xs[2])  # the block is sized before A binds to it
        np.testing.assert_array_equal(plan.forward(xs[index]), expected)
        other.forward(xs[2])
        pads = [
            (interior, pad)
            for interior, pad, _, _ in _thread_arena().bound[plan][n].bufs.values()
            if pad is not None
        ]
        # the other plan wrote where a border lies
        assert any(np.count_nonzero(p) > np.count_nonzero(i) for i, p in pads)
        np.testing.assert_array_equal(plan.forward(xs[index]), expected)

    @pytest.mark.parametrize("n", [1, 8])
    def test_buffers_live_at_once_share_no_bytes(self, n):
        """Walk each binding's lifetimes: no two buffers live at the same
        tick, and neither scratch with any buffer, share a byte (fails
        when every buffer is placed at the base), while buffers that are
        never live together do share the block."""
        mobilenet = build_mobilenetv2(
            num_classes=5, input_size=16, width_multiplier=0.25, seed=0
        )
        for plan in _arena_plans() + [compile_module(mobilenet)]:
            arena = _Arena()
            binding = plan._bind(arena, n)
            spans = _lifetimes(plan.steps)
            views = {
                (step, role): binding.bufs[step][1 if role == "pad" else 2]
                for step, role in spans
            }
            keys = list(spans)
            for i, a in enumerate(keys):
                assert not np.shares_memory(views[a], binding.cols)
                assert not np.shares_memory(views[a], binding.tmp)
                for b in keys[i + 1 :]:
                    if spans[a][0] <= spans[b][1] and spans[b][0] <= spans[a][1]:
                        assert not np.shares_memory(views[a], views[b]), (a, b)
            unpacked = sum(view.nbytes for view in views.values())
            assert arena.nbytes < binding.cols.nbytes + binding.tmp.nbytes + unpacked


class TestConcurrentForward:
    """Regression: a shared scratch made concurrent forwards corrupt
    each other; every thread now binds plans to an arena of its own."""

    def test_two_threads_same_batch_match_eager(self):
        import threading

        model = build_resnet18(num_classes=5, input_size=16, width=16, seed=0)
        compiled = compile_module(model)
        rng = np.random.default_rng(11)
        inputs = [
            rng.standard_normal((4, *model.input_shape), dtype=np.float32)
            for _ in range(2)
        ]
        expected = [eager_forward(model, x) for x in inputs]
        errors: list[float] = []
        barrier = threading.Barrier(2)

        def worker(idx: int) -> None:
            barrier.wait()
            for _ in range(12):
                out = compiled.forward(inputs[idx])
                errors.append(float(np.abs(out - expected[idx]).max()))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(errors) == 24
        assert max(errors) < PARITY_TOL

    def test_two_threads_interleaved_plans_match_fresh_memory(self):
        import sys
        import threading

        plans = _arena_plans()
        rng = np.random.default_rng(13)
        work = [
            (plan, x, fresh_forward(plan, x))
            for n in (1, 8, 1)
            for plan in plans
            for x in [rng.standard_normal((n, *plan.input_shape), dtype=np.float32)]
        ]
        arenas, mismatches = [], []
        barrier = threading.Barrier(2)

        def worker(order) -> None:
            arenas.append(_thread_arena())
            barrier.wait(timeout=30)
            for _ in range(4):
                for plan, x, expected in order:
                    if not np.array_equal(plan.forward(x), expected):
                        mismatches.append(plan.precision)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(order,))
                for order in (work, work[::-1])
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches
        # each thread bound the shared plans to an arena of its own
        assert arenas[0] is not arenas[1] and _thread_arena() not in arenas
        assert all(arena.nbytes > 0 for arena in arenas)

"""Parallel backend: weight arenas and the process pool."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.dnn.configs import TABLE_I_CONFIGS
from repro.dnn.graph import Sequential
from repro.dnn.layers import Linear, ReLU
from repro.dnn.mobilenet import build_mobilenetv2
from repro.dnn.pruning import prune_resnet
from repro.dnn.resnet import build_resnet18
from repro.serving.executor import BlockwiseRunner
from repro.serving.parallel import (
    BLAS_THREAD_VARS,
    ParallelBackend,
    WeightArena,
    pin_blas_threads,
    shared_memory_available,
)

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory restricted on this platform",
)


def tiny_model(name: str = "CONFIG A", width: int = 8, input_size: int = 16):
    config = TABLE_I_CONFIGS[name]
    model = build_resnet18(num_classes=5, input_size=input_size, width=width, seed=0)
    if config.pruned:
        prune_resnet(model, set(config.prunable_blocks), config.prune_ratio)
    return model


@needs_shm
class TestWeightArena:
    def test_round_trip_and_dedup(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        payload = {"w": w, "b": b, "w_again": w, "meta": {"n": 7}}
        arena = WeightArena.publish(payload)
        try:
            # shared tensor published once, not per reference
            assert len(arena.spec.slots) == 2
            attached, rebuilt = WeightArena.attach(arena.spec)
            try:
                np.testing.assert_array_equal(rebuilt["w"], w)
                np.testing.assert_array_equal(rebuilt["b"], b)
                assert rebuilt["meta"] == {"n": 7}
                # identity of the duplicate is preserved through the pickle
                assert rebuilt["w_again"] is rebuilt["w"]
                # views are zero-copy and read-only
                assert not rebuilt["w"].flags.writeable
                with pytest.raises(ValueError):
                    rebuilt["w"][0, 0] = 1.0
            finally:
                attached.close()
        finally:
            arena.close()
            arena.unlink()

    def test_slots_are_aligned(self):
        payload = [np.ones(3, dtype=np.float32), np.ones(5, dtype=np.float64)]
        arena = WeightArena.publish(payload)
        try:
            for offset, _shape, _dtype in arena.spec.slots:
                assert offset % 64 == 0
        finally:
            arena.close()
            arena.unlink()

    def test_object_arrays_rejected(self):
        with pytest.raises(TypeError):
            WeightArena.publish({"bad": np.array([object()], dtype=object)})

    def test_module_graph_survives(self):
        rng = np.random.default_rng(0)
        module = Sequential(Linear(6, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        arena = WeightArena.publish({"m": module})
        try:
            _, rebuilt = WeightArena.attach(arena.spec)
            x = np.random.default_rng(1).standard_normal((3, 6)).astype(np.float32)
            np.testing.assert_array_equal(rebuilt["m"](x), module(x))
        finally:
            arena.close()
            arena.unlink()


class TestSerialFallback:
    def test_num_procs_one_is_serial(self):
        backend = ParallelBackend.for_model(tiny_model(), num_procs=1)
        assert backend.mode == "serial"
        assert backend.fallback_reason == "num_procs=1"
        assert backend.procs == 1
        backend.close()

    def test_unimportable_main_falls_back(self, monkeypatch):
        import __main__

        monkeypatch.setattr(__main__, "__file__", "/nonexistent/<stdin>", raising=False)
        backend = ParallelBackend.for_model(tiny_model(), num_procs=2)
        assert backend.mode == "serial"
        assert backend.fallback_reason == "main module not importable by spawn"
        backend.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelBackend({}, num_procs=-1)
        with pytest.raises(ValueError):
            ParallelBackend({}, num_procs=1, min_shard=0)

    def test_unknown_block_rejected(self):
        backend = ParallelBackend.for_model(tiny_model(), num_procs=1)
        with pytest.raises(KeyError):
            backend.run_path(("nope",), np.zeros((1, 3, 16, 16), dtype=np.float32))
        backend.close()

    def test_closed_backend_rejects_work(self):
        backend = ParallelBackend.for_model(tiny_model(), num_procs=1)
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError):
            backend.run_model(np.zeros((1, 3, 16, 16), dtype=np.float32))


class TestSerialParity:
    @pytest.mark.parametrize("name", sorted(TABLE_I_CONFIGS))
    def test_table_i_configs_match_eager(self, name):
        model = tiny_model(name)
        x = np.random.default_rng(3).standard_normal(
            (4, *model.input_shape), dtype=np.float32
        )
        with ParallelBackend.for_model(model, num_procs=1) as backend:
            out = backend.run_model(x)
        assert np.abs(out - model.forward(x)).max() < 1e-4

    def test_mobilenet_matches_eager(self):
        model = build_mobilenetv2(
            num_classes=5, input_size=16, width_multiplier=0.25, seed=0
        )
        x = np.random.default_rng(4).standard_normal(
            (4, *model.input_shape), dtype=np.float32
        )
        with ParallelBackend.for_model(model, num_procs=1) as backend:
            out = backend.run_model(x)
        assert np.abs(out - model.forward(x)).max() < 1e-4

    def test_stats_accumulate(self):
        model = tiny_model()
        with ParallelBackend.for_model(model, num_procs=1) as backend:
            x = np.zeros((3, *model.input_shape), dtype=np.float32)
            backend.run_model(x)
            backend.run_block("stem", x)
            assert backend.calls == 2
            assert backend.samples == 6
            assert backend.sharded_calls == 0


@needs_shm
class TestProcessPool:
    @pytest.fixture(scope="class")
    def pooled(self):
        model = tiny_model()
        backend = ParallelBackend.for_model(model, num_procs=2, min_shard=2)
        yield model, backend
        backend.close()

    def test_parallel_matches_serial_exactly(self, pooled):
        model, backend = pooled
        if backend.mode != "parallel":  # pragma: no cover - platform specific
            pytest.skip(f"pool unavailable: {backend.fallback_reason}")
        x = np.random.default_rng(5).standard_normal(
            (8, *model.input_shape), dtype=np.float32
        )
        with ParallelBackend.for_model(model, num_procs=1) as serial:
            reference = serial.run_model(x)
        out = backend.run_model(x)
        assert backend.sharded_calls >= 1
        assert np.abs(out - reference).max() < 1e-6

    def test_small_batches_stay_in_parent(self, pooled):
        model, backend = pooled
        if backend.mode != "parallel":  # pragma: no cover - platform specific
            pytest.skip(f"pool unavailable: {backend.fallback_reason}")
        sharded_before = backend.sharded_calls
        x = np.zeros((2, *model.input_shape), dtype=np.float32)
        backend.run_model(x)  # 2 < 2 * min_shard: no worker round-trip
        assert backend.sharded_calls == sharded_before


class TestShardCount:
    def _serial(self):
        return ParallelBackend.for_model(tiny_model(), num_procs=1, min_shard=4)

    def test_serial_backend_never_shards(self):
        with self._serial() as backend:
            assert backend._shard_count(64) == 1

    def test_shard_rules(self):
        with self._serial() as backend:
            backend._pool = object()  # pretend a pool exists
            backend.procs = 4
            try:
                assert backend._shard_count(7) == 1  # below 2 * min_shard
                assert backend._shard_count(8) == 2
                assert backend._shard_count(16) == 4
                assert backend._shard_count(1024) == 4  # capped at procs
            finally:
                backend._pool = None


class TestPinBlasThreads:
    def test_sets_and_restores(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with pin_blas_threads(1):
            for var in BLAS_THREAD_VARS:
                assert os.environ[var] == "1"
        assert os.environ["OMP_NUM_THREADS"] == "7"
        assert "MKL_NUM_THREADS" not in os.environ


class TestBlockwiseRunnerIntegration:
    def test_runner_routes_through_backend(self):
        from repro.core.catalog import Block, Path
        from repro.core.task import QualityLevel

        model = tiny_model()
        quality = QualityLevel(name="full", bits_per_image=1.0)
        blocks = tuple(
            Block(name, "base", compute_time_s=0.01, memory_gb=0.1)
            for name in model.blocks
        )
        path = Path("p", "base", 1, blocks, accuracy=0.9, quality=quality)
        x = np.random.default_rng(6).standard_normal(
            (2, *model.input_shape), dtype=np.float32
        )
        plain = BlockwiseRunner(modules=dict(model.blocks))
        with ParallelBackend.for_model(model, num_procs=1) as backend:
            routed = BlockwiseRunner(
                modules=dict(model.blocks),
                cacheable=frozenset(list(model.blocks)[:2]),
                parallel=backend,
            )
            out = routed.run(path, x, input_key=1)
            assert np.abs(out - plain.run(path, x, input_key=1)).max() < 1e-4
            before = backend.calls
            routed.run(path, x, input_key=1)  # prefix cache still works
            assert routed.cache_hits == 1
            # cached prefix blocks were not re-executed on the backend
            assert backend.calls - before == len(blocks) - 2

"""Unit tests for tasks, quality levels, blocks, paths and the catalog."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.catalog import Block, Catalog, Path
from repro.core.task import QualityLevel, Task
from tests.conftest import make_block, make_path, make_task


class TestQualityLevel:
    def test_valid(self):
        q = QualityLevel("half", 100_000.0, accuracy_factor=0.9)
        assert q.bits_per_image == 100_000.0

    def test_zero_bits_is_valid(self):
        """β(q) = 0 models cached/pre-staged inputs at the edge."""
        q = QualityLevel("cached", 0.0)
        assert q.bits_per_image == 0.0

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QualityLevel("bad", -1.0)

    def test_invalid_accuracy_factor(self):
        with pytest.raises(ValueError):
            QualityLevel("bad", 1.0, accuracy_factor=0.0)
        with pytest.raises(ValueError):
            QualityLevel("bad", 1.0, accuracy_factor=1.5)


class TestTask:
    def test_default_quality_is_highest_fidelity(self):
        q_low = QualityLevel("low", 50_000.0, accuracy_factor=0.8)
        q_high = QualityLevel("high", 350_000.0, accuracy_factor=1.0)
        task = Task(
            task_id=1, name="t", method="cls", priority=0.5, request_rate=1.0,
            min_accuracy=0.5, max_latency_s=0.5, qualities=(q_low, q_high),
        )
        assert task.default_quality is q_high

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"priority": 1.5},
            {"priority": -0.1},
            {"request_rate": 0.0},
            {"min_accuracy": 1.2},
            {"max_latency_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(
            task_id=1, name="t", method="cls", priority=0.5, request_rate=1.0,
            min_accuracy=0.5, max_latency_s=0.5,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            Task(**base)

    def test_empty_qualities_rejected(self):
        with pytest.raises(ValueError):
            Task(
                task_id=1, name="t", method="cls", priority=0.5, request_rate=1.0,
                min_accuracy=0.5, max_latency_s=0.5, qualities=(),
            )


class TestBlock:
    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            Block("b", "d", compute_time_s=-1.0, memory_gb=0.1)
        with pytest.raises(ValueError):
            Block("b", "d", compute_time_s=0.1, memory_gb=-1.0)
        with pytest.raises(ValueError):
            Block("b", "d", compute_time_s=0.1, memory_gb=0.1, training_cost_s=-1.0)
        for marginal in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="batch_marginal"):
                Block("b", "d", compute_time_s=0.1, memory_gb=0.1, batch_marginal=marginal)
        # worse than serial is a measurement, not an error
        assert Block("b", "d", 0.1, 0.1, batch_marginal=1.3).batch_marginal == 1.3


class TestPath:
    def test_compute_time_sums_blocks(self):
        task = make_task(1)
        blocks = (make_block("a", compute_time_s=0.01), make_block("b", compute_time_s=0.02))
        path = make_path(task, "p", blocks)
        assert path.compute_time_s == pytest.approx(0.03)

    def test_block_sums_are_per_instance(self):
        """The sums are kept on the frozen instance; a re-blocked copy
        (``dataclasses.replace``) computes its own."""
        task = make_task(1)
        blocks = (
            make_block("a", compute_time_s=0.1, memory_gb=0.3),
            make_block("b", compute_time_s=0.2, memory_gb=0.4),
            make_block("c", compute_time_s=0.3, memory_gb=0.5),
        )
        path = make_path(task, "p", blocks)
        assert path.compute_time_s == sum(b.compute_time_s for b in blocks)
        assert path.memory_gb == sum(b.memory_gb for b in blocks)
        shorter = replace(path, blocks=blocks[:2])
        assert shorter.compute_time_s == sum(b.compute_time_s for b in blocks[:2])
        assert shorter.memory_gb == sum(b.memory_gb for b in blocks[:2])
        assert path.compute_time_s == sum(b.compute_time_s for b in blocks)
        # the cached sums are not part of the value
        assert replace(path) == path and hash(replace(path)) == hash(path)

    def test_effective_accuracy_scaled_by_quality(self):
        q = QualityLevel("half", 100_000.0, accuracy_factor=0.5)
        task = make_task(1, quality=q)
        path = make_path(task, "p", (make_block("a"),), accuracy=0.8)
        assert path.effective_accuracy == pytest.approx(0.4)

    def test_block_ids(self):
        task = make_task(1)
        path = make_path(task, "p", (make_block("a"), make_block("b")))
        assert path.block_ids() == frozenset({"a", "b"})

    def test_empty_blocks_rejected(self):
        task = make_task(1)
        with pytest.raises(ValueError):
            Path(
                path_id="p", dnn_id="d", task_id=1, blocks=(),
                accuracy=0.5, quality=task.qualities[0],
            )

    def test_bad_accuracy_rejected(self):
        task = make_task(1)
        with pytest.raises(ValueError):
            make_path(task, "p", (make_block("a"),), accuracy=1.2)


class TestCatalog:
    def test_add_and_lookup(self):
        task = make_task(1)
        catalog = Catalog()
        catalog.add_path(make_path(task, "p0", (make_block("a"),)))
        assert len(catalog.paths_for(task)) == 1
        assert len(catalog.paths_for(99)) == 0

    def test_duplicate_path_id_rejected(self):
        task = make_task(1)
        catalog = Catalog()
        catalog.add_path(make_path(task, "p0", (make_block("a"),)))
        with pytest.raises(ValueError, match="duplicate path_id"):
            catalog.add_path(make_path(task, "p0", (make_block("b"),)))

    def test_all_blocks_dedup(self):
        task = make_task(1)
        shared = make_block("shared")
        catalog = Catalog()
        catalog.add_path(make_path(task, "p0", (shared, make_block("x"))))
        catalog.add_path(make_path(task, "p1", (shared, make_block("y"))))
        assert set(catalog.all_blocks()) == {"shared", "x", "y"}

    def test_inconsistent_block_costs_detected(self):
        task = make_task(1)
        catalog = Catalog()
        catalog.add_path(make_path(task, "p0", (make_block("s", memory_gb=0.1),)))
        catalog.add_path(make_path(task, "p1", (make_block("s", memory_gb=0.9),)))
        with pytest.raises(ValueError, match="inconsistent"):
            catalog.all_blocks()
        # one block id, two batch laws: the window trie could charge either
        one_law = make_block("t")
        catalog = Catalog()
        catalog.add_path(make_path(task, "p0", (one_law,)))
        catalog.add_path(make_path(task, "p1", (replace(one_law, batch_marginal=1.1),)))
        with pytest.raises(ValueError, match="block_id 't' bound to inconsistent"):
            catalog.validate((task,))

    def test_validate_requires_paths_for_all_tasks(self):
        t1, t2 = make_task(1), make_task(2)
        catalog = Catalog()
        catalog.add_path(make_path(t1, "p0", (make_block("a"),)))
        with pytest.raises(ValueError, match="without candidate paths"):
            catalog.validate((t1, t2))

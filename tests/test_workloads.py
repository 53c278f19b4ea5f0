"""Unit tests for the Table IV scenario generators."""

from __future__ import annotations

import pytest

from repro.core.catalog import DEFAULT_BATCH_MARGINAL, INT8_ACCURACY_DROP
from repro.core.task import QualityLevel
from repro.workloads.generator import (
    GROUP_NAMES,
    CostBasis,
    DNNFamily,
    ScenarioCatalogBuilder,
    cost_basis_from_profiler,
)
from repro.workloads.largescale import (
    LARGE_SCALE,
    RequestRate,
    large_scale_problem,
    large_scale_tasks,
)
from repro.workloads.smallscale import (
    SMALL_SCALE,
    small_scale_problem,
    small_scale_tasks,
)
from tests.conftest import make_task


class TestCostBasis:
    def test_full_path_magnitudes(self):
        basis = CostBasis()
        total_compute = sum(basis.compute_s.values())
        total_memory = sum(basis.memory_gb.values())
        assert 0.02 < total_compute < 0.06  # tens of ms
        assert 0.8 < total_memory < 1.2  # ~1 GB per full DNN

    def test_pruned_factors(self):
        basis = CostBasis()
        assert basis.group_compute("g4", pruned=True) == pytest.approx(
            basis.compute_s["g4"] * basis.pruned_compute_factor
        )
        assert basis.group_memory("g4", pruned=True) < basis.memory_gb["g4"]

    def test_all_ten_config_accuracies(self):
        basis = CostBasis()
        assert len(basis.accuracy) == 10
        assert basis.accuracy["CONFIG A"] == max(basis.accuracy.values())

    def test_from_profiler(self):
        basis = cost_basis_from_profiler(width=8, input_size=16, repeats=1)
        assert set(basis.compute_s) == set(GROUP_NAMES)
        # wall-clock ratios are noisy at toy widths; memory is exact
        assert basis.pruned_compute_factor > 0
        assert 0 < basis.pruned_memory_factor < 1
        assert len(basis.accuracy) == 10
        # the fp32 batch law was measured; nobody profiled int8
        assert basis.batch_marginal != DEFAULT_BATCH_MARGINAL
        assert basis.int8_batch_marginal == DEFAULT_BATCH_MARGINAL


class TestScenarioCatalogBuilder:
    def test_paths_per_task(self, quality):
        builder = ScenarioCatalogBuilder()
        tasks = (make_task(1), make_task(2))
        catalog = builder.build(tasks, quality)
        assert len(catalog.paths_for(1)) == 10  # all Table I configs

    def test_families_multiply_paths(self, quality):
        builder = ScenarioCatalogBuilder(
            families=(DNNFamily("a"), DNNFamily("b")),
            config_names=("CONFIG A", "CONFIG C"),
        )
        catalog = builder.build((make_task(1),), quality)
        assert len(catalog.paths_for(1)) == 4

    def test_shared_blocks_common_across_tasks(self, quality):
        builder = ScenarioCatalogBuilder(config_names=("CONFIG B", "CONFIG C"))
        catalog = builder.build((make_task(1), make_task(2)), quality)
        blocks = catalog.all_blocks()
        shared = [b for b in blocks if ":base:" in b]
        assert len(shared) == 3  # g1, g2, g3 of the single family

    def test_task_specific_blocks_not_shared(self, quality):
        builder = ScenarioCatalogBuilder(config_names=("CONFIG B", "CONFIG C"))
        catalog = builder.build((make_task(1), make_task(2)), quality)
        own = [
            {
                b.block_id
                for p in catalog.paths_for(tid)
                for b in p.blocks
                if ":base:" not in b.block_id
            }
            for tid in (1, 2)
        ]
        assert own[0] and own[1]
        assert not own[0] & own[1]

    def test_block_costs_consistent(self, quality):
        builder = ScenarioCatalogBuilder()
        catalog = builder.build(tuple(make_task(i) for i in range(1, 6)), quality)
        catalog.all_blocks()  # raises if any block id maps to two costs

    def test_paths_have_four_blocks(self, quality):
        builder = ScenarioCatalogBuilder()
        catalog = builder.build((make_task(1),), quality)
        for path in catalog.paths_for(1):
            assert len(path.blocks) == 4

    def test_deterministic_given_seed(self, quality):
        a = ScenarioCatalogBuilder(seed=5).build((make_task(1),), quality)
        b = ScenarioCatalogBuilder(seed=5).build((make_task(1),), quality)
        for pa, pb in zip(a.paths_for(1), b.paths_for(1)):
            assert pa.accuracy == pb.accuracy
            assert pa.compute_time_s == pb.compute_time_s

    def test_family_scaling(self, quality):
        builder = ScenarioCatalogBuilder(
            families=(DNNFamily("slim", compute_scale=0.5, memory_scale=0.5),),
            config_names=("CONFIG A",),
            compute_jitter=0.0,
        )
        catalog = builder.build((make_task(1),), quality)
        path = catalog.paths_for(1)[0]
        basis = CostBasis()
        assert path.compute_time_s == pytest.approx(0.5 * sum(basis.compute_s.values()))

    def test_accuracy_offset_clipped(self, quality):
        builder = ScenarioCatalogBuilder(
            families=(
                DNNFamily("a", accuracy_offset=2.0),
                DNNFamily("b", accuracy_offset=-2.0),
            ),
            config_names=("CONFIG A", "CONFIG C"),
        )
        catalog = builder.build((make_task(1),), quality)
        accuracy = {p.path_id: p.accuracy for p in catalog.paths_for(1)}
        assert len(accuracy) == 4
        assert all(
            a == (1.0 if path_id.startswith("a:") else 0.0)
            for path_id, a in accuracy.items()
        )


class TestQuantizedVariants:
    """int8 catalog variants: the solver-visible quantization axis."""

    def test_quantized_variants_double_the_paths(self, quality):
        builder = ScenarioCatalogBuilder(quantized_variants=True)
        catalog = builder.build((make_task(1),), quality)
        paths = catalog.paths_for(1)
        assert len(paths) == 20  # 10 configs x {fp32, int8}
        assert sum(1 for p in paths if p.path_id.endswith("-int8")) == 10

    def test_int8_blocks_cheaper_not_cross_shared(self, quality):
        builder = ScenarioCatalogBuilder(
            config_names=("CONFIG B",), quantized_variants=True,
            compute_jitter=0.0, accuracy_jitter=0.0,
        )
        catalog = builder.build((make_task(1),), quality)
        by_id = {p.path_id: p for p in catalog.paths_for(1)}
        fp32 = by_id[next(k for k in by_id if not k.endswith("-int8"))]
        int8 = by_id[next(k for k in by_id if k.endswith("-int8"))]
        assert sum(b.memory_gb for b in int8.blocks) < 0.5 * sum(
            b.memory_gb for b in fp32.blocks
        )
        assert int8.compute_time_s < fp32.compute_time_s
        assert int8.accuracy == pytest.approx(fp32.accuracy - INT8_ACCURACY_DROP)
        fp32_shared = {b.block_id for b in fp32.blocks if ":base" in b.block_id}
        int8_shared = {b.block_id for b in int8.blocks if ":base" in b.block_id}
        assert int8_shared and not fp32_shared & int8_shared
        assert all(":base:int8:" in b for b in int8_shared)

    def test_blocks_carry_the_batch_law_of_their_precision(self, quality):
        builder = ScenarioCatalogBuilder(
            basis=CostBasis(batch_marginal=0.88, int8_batch_marginal=0.63),
            quantized_variants=True,
        )
        for path in builder.build((make_task(1), make_task(2)), quality).paths_for(2):
            law = 0.63 if path.path_id.endswith("-int8") else 0.88
            assert all(block.batch_marginal == law for block in path.blocks)
        default = ScenarioCatalogBuilder().build((make_task(1),), quality)
        assert {
            b.batch_marginal for b in default.all_blocks().values()
        } == {DEFAULT_BATCH_MARGINAL}

    def test_solver_chooses_int8_under_tight_memory(self, quality):
        """Acceptance: under a tightened memory budget the DOT solver
        picks int8 variants and admits strictly more than the
        fp32-only catalog on the same instance."""
        from repro.core.heuristic import OffloaDNNSolver
        from repro.core.problem import Budgets, DOTProblem, RadioModel
        from repro.workloads.smallscale import (
            SMALL_SCALE_CONFIGS,
            SMALL_SCALE_FAMILIES,
        )

        def build_problem(quantized: bool) -> DOTProblem:
            tasks = small_scale_tasks(5)
            builder = ScenarioCatalogBuilder(
                families=SMALL_SCALE_FAMILIES,
                config_names=SMALL_SCALE_CONFIGS,
                quantized_variants=quantized,
                seed=0,
            )
            catalog = builder.build(tasks, tasks[0].qualities[0])
            return DOTProblem(
                tasks=tasks,
                catalog=catalog,
                budgets=Budgets(
                    compute_time_s=2.5,
                    training_budget_s=1000.0,
                    memory_gb=1.0,  # tightened: 8.0 in Table IV
                    radio_blocks=50,
                ),
                radio=RadioModel(default_bits_per_rb=350_000.0),
                alpha=0.5,
            )

        fp32_problem = build_problem(False)
        int8_problem = build_problem(True)
        fp32_solution = OffloaDNNSolver().solve(fp32_problem)
        int8_solution = OffloaDNNSolver().solve(int8_problem)
        assert (
            int8_solution.weighted_admission_ratio
            > fp32_solution.weighted_admission_ratio
        )
        assert (
            int8_solution.admitted_task_count
            > fp32_solution.admitted_task_count
        )
        chosen = [
            int8_solution.assignment(t).path.path_id
            for t in int8_problem.tasks
            if int8_solution.assignment(t).path is not None
        ]
        assert any(p.endswith("-int8") for p in chosen)
        # admitted paths still honor each task's accuracy floor
        for task in int8_problem.tasks:
            path = int8_solution.assignment(task).path
            if path is not None:
                assert path.accuracy >= task.min_accuracy


class TestSmallScale:
    def test_table_iv_parameters(self):
        assert SMALL_SCALE.request_rate == 5.0
        assert SMALL_SCALE.accuracies == (0.9, 0.8, 0.7, 0.6, 0.5)
        assert SMALL_SCALE.priorities == (0.8, 0.7, 0.6, 0.5, 0.4)
        assert SMALL_SCALE.radio_blocks == 50
        assert SMALL_SCALE.memory_gb == 8.0
        assert SMALL_SCALE.compute_budget_s == 2.5

    def test_tasks_constructed_in_priority_order(self):
        tasks = small_scale_tasks(5)
        assert [t.priority for t in tasks] == [0.8, 0.7, 0.6, 0.5, 0.4]
        assert [t.max_latency_s for t in tasks] == [0.2, 0.3, 0.4, 0.5, 0.6]

    def test_problem_has_15_paths_per_task(self):
        problem = small_scale_problem(3)
        # |D| = 3 families x |Pi| = 5 configs
        assert len(problem.catalog.paths_for(1)) == 15

    def test_invalid_task_count(self):
        with pytest.raises(ValueError):
            small_scale_tasks(0)
        with pytest.raises(ValueError):
            small_scale_tasks(6)

    def test_three_dnn_families(self):
        problem = small_scale_problem(1)
        families = {p.dnn_id.split(":")[0] for p in problem.catalog.paths_for(1)}
        assert families == {"rn18", "rn18s", "rn18w"}


class TestLargeScale:
    def test_table_iv_parameters(self):
        assert LARGE_SCALE.num_tasks == 20
        assert LARGE_SCALE.memory_gb == 16.0
        assert LARGE_SCALE.compute_budget_s == 10.0
        assert LARGE_SCALE.radio_blocks == 100

    def test_request_rates(self):
        assert RequestRate.LOW.value == 2.5
        assert RequestRate.MEDIUM.value == 5.0
        assert RequestRate.HIGH.value == 7.5

    def test_accuracy_and_latency_formulas(self):
        assert LARGE_SCALE.accuracy_for(1) == pytest.approx(0.785)
        assert LARGE_SCALE.accuracy_for(20) == pytest.approx(0.5)
        assert LARGE_SCALE.latency_for(1) == pytest.approx(0.22)
        assert LARGE_SCALE.latency_for(20) == pytest.approx(0.6)

    def test_priorities_descend_from_one(self):
        tasks = large_scale_tasks(RequestRate.LOW)
        assert tasks[0].priority == pytest.approx(1.0)
        assert tasks[-1].priority == pytest.approx(0.05)

    def test_problem_has_ten_paths_per_task(self):
        problem = large_scale_problem(RequestRate.LOW)
        assert len(problem.catalog.paths_for(1)) == 10

    def test_many_distinct_dnn_structures(self):
        """Table IV lists |D| = 125; our catalog realizes 100+ distinct
        dynamic structures (per-task fine-tuned variants + base)."""
        problem = large_scale_problem(RequestRate.LOW)
        paths = problem.catalog.paths_by_task.values()
        assert len({p.dnn_id for task_paths in paths for p in task_paths}) >= 100

    def test_rate_affects_tasks_only(self):
        low = large_scale_problem(RequestRate.LOW, seed=0)
        high = large_scale_problem(RequestRate.HIGH, seed=0)
        assert low.tasks[0].request_rate == 2.5
        assert high.tasks[0].request_rate == 7.5
        # same catalog costs
        assert (
            low.catalog.paths_for(1)[0].compute_time_s
            == high.catalog.paths_for(1)[0].compute_time_s
        )

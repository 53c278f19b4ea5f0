"""Parity of the batched control plane with the scalar reference.

The one tree in ``src/`` (``build_vector_tree`` + ``first_branch`` /
``branches``) must produce *bit-identical* solutions to the per-vertex
scalar oracle (``tests/oracles.py``: ``scalar_cliques``,
``scalar_first_branch``) — same chosen paths, same admission ratios,
same RB counts — across orderings, slice margins and problem
geometries.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tree as tree_module
from repro.core.catalog import Catalog
from repro.core.heuristic import OffloaDNNSolver, allocate
from repro.core.objective import check_constraints
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.task import QualityLevel
from repro.core.tree import VectorClique, build_cliques, build_vector_tree, first_branch
from tests.conftest import make_block, make_path, make_task
from tests.oracles import clique_items, item_allocate, scalar_cliques, scalar_first_branch


def solution_key(solution):
    """Everything that must match between two solves, bit for bit."""
    return [
        (
            tid,
            a.path.path_id if a.path else None,
            a.path.quality.name if a.path else None,
            a.admission_ratio,
            a.radio_blocks,
        )
        for tid, a in sorted(solution.assignments.items())
    ]


def random_problem(seed: int, num_tasks: int = 8) -> DOTProblem:
    """A randomized multi-quality, block-sharing instance."""
    rng = np.random.default_rng(seed)
    shared_pool = [
        make_block(
            f"shared{j}",
            compute_time_s=float(rng.uniform(0.001, 0.02)),
            memory_gb=float(rng.uniform(0.1, 1.5)),
            training_cost_s=float(rng.uniform(0.0, 200.0)),
        )
        for j in range(4)
    ]
    qualities = (
        QualityLevel("full", 350_000.0),
        QualityLevel("half", 175_000.0, accuracy_factor=0.92),
        QualityLevel("low", 50_000.0, accuracy_factor=0.85),
    )
    catalog = Catalog()
    tasks = []
    overrides: dict[int, float] = {}
    for i in range(1, num_tasks + 1):
        task = make_task(
            i,
            priority=float(rng.uniform(0.05, 1.0)),
            request_rate=float(rng.uniform(0.5, 10.0)),
            min_accuracy=float(rng.uniform(0.5, 0.9)),
            max_latency_s=float(rng.uniform(0.05, 0.6)),
        )
        task = type(task)(
            task_id=task.task_id,
            name=task.name,
            method=task.method,
            priority=task.priority,
            request_rate=task.request_rate,
            min_accuracy=task.min_accuracy,
            max_latency_s=task.max_latency_s,
            qualities=qualities,
        )
        tasks.append(task)
        for p in range(int(rng.integers(1, 4))):
            own = make_block(
                f"own{i}-{p}",
                compute_time_s=float(rng.uniform(0.001, 0.03)),
                memory_gb=float(rng.uniform(0.05, 1.0)),
                training_cost_s=float(rng.uniform(0.0, 100.0)),
            )
            trunk = shared_pool[int(rng.integers(len(shared_pool)))]
            catalog.add_path(
                make_path(
                    task,
                    f"t{i}-p{p}",
                    (trunk, own),
                    accuracy=float(rng.uniform(0.6, 1.0)),
                )
            )
        if rng.random() < 0.3:
            overrides[i] = float(rng.choice([175_000.0, 700_000.0]))
    return DOTProblem(
        tasks=tuple(tasks),
        catalog=catalog,
        budgets=Budgets(
            compute_time_s=float(rng.uniform(0.2, 3.0)),
            training_budget_s=1000.0,
            memory_gb=float(rng.uniform(1.0, 8.0)),
            radio_blocks=int(rng.integers(5, 80)),
        ),
        radio=RadioModel(
            default_bits_per_rb=350_000.0, per_task_bits_per_rb=overrides
        ),
        alpha=0.5,
    )


def with_budgets(problem: DOTProblem, **changes) -> DOTProblem:
    return replace(problem, budgets=replace(problem.budgets, **changes))


def replicated(problem: DOTProblem, copies: int, deshare: bool) -> DOTProblem:
    """``copies`` replicas of every task, sharing its path tuple by identity
    or, with ``deshare``, each holding a reversed copy of its own."""
    tasks, catalog = [], Catalog()
    for copy in range(copies):
        for task in problem.tasks:
            task_id = task.task_id + copy * len(problem.tasks)
            tasks.append(replace(task, task_id=task_id))
            paths = problem.catalog.paths_by_task[task.task_id]
            catalog.paths_by_task[task_id] = paths[::-1] if deshare else paths
    return replace(problem, tasks=tuple(tasks), catalog=catalog)


#: problems where the head pass of ``first_branch`` is not the whole walk
WALK_GEOMETRIES = {
    # heads miss (1b): the per-clique feasible() scan runs
    "tight_memory": lambda seed: with_budgets(
        random_problem(seed), memory_gb=random_problem(seed).budgets.memory_gb * 0.2
    ),
    # whole cliques lose every variant to the radio filter: no head
    "starved_radio": lambda seed: with_budgets(random_problem(seed), radio_blocks=2),
    # replicas share one clique's rows; memory runs out part-way
    "replicated": lambda seed: with_budgets(
        replicated(random_problem(seed, 5), 4, deshare=False), memory_gb=2.0
    ),
    "deshared": lambda seed: with_budgets(
        replicated(random_problem(seed, 5), 4, deshare=True), memory_gb=2.0
    ),
}


def branch_key(tree, picks):
    """A walked pick column as ids and radio constants."""
    return [
        (clique.task.task_id, None if pick < 0 else (
            clique.task.task_id,
            clique.variant_path_id(pick),
            clique.variant_path(pick).quality.name,
            clique.bits_per_rb,
        ))
        for clique, pick in zip(tree.cliques, picks, strict=True)
    ]


def item_branch_key(branch):
    """An oracle's ``(task id, vertex or None)`` branch in the same terms."""
    return [
        (tid, None if item is None else (
            item.task.task_id, item.path.path_id, item.path.quality.name, item.bits_per_rb
        ))
        for tid, item in branch
    ]


def scalar_solve(problem, ordering="compute", margin=0):
    """The first-branch solution by the scalar oracle's tree and walk."""
    return item_allocate(
        problem, scalar_first_branch(problem, ordering), slice_margin_rbs=margin
    )


def _vertex_rows(vertices):
    return [
        (v.path.path_id, v.path.quality.name, v.compute_time_s, v.path.bits_per_image,
         v.path.effective_accuracy, v.min_latency_rbs, v.bits_per_rb)
        for v in vertices
    ]


def _oracle_rows(problem):
    """Per layer ``(task, vertex rows, filtered out)`` of the scalar oracle."""
    return [
        (task, _vertex_rows(vertices), dropped)
        for task, vertices, dropped in scalar_cliques(problem)
    ]


def _tree_rows(tree):
    """The same rows read off a ``VectorTree`` under its problem's radio capacity."""
    radio_blocks = tree.problem.budgets.radio_blocks
    return [
        (clique.task, _vertex_rows(clique_items(clique, radio_blocks)),
         tree.filtered_out[clique.task.task_id])
        for clique in tree.cliques
    ]


class TestVectorTreeMaterialize:
    """The tree's cliques, read as vertices, are the scalar oracle's."""

    @pytest.mark.parametrize("seed", range(6))
    def test_clique_contents_match(self, seed):
        problem = random_problem(seed)
        tree = build_vector_tree(problem)
        assert _tree_rows(tree) == _oracle_rows(problem)
        sizes = [len(vertices) for _, vertices, _ in scalar_cliques(problem)]
        assert tree.clique_sizes() == sizes
        assert tree.tasks_without_options() == [
            task for task, vertices, _ in scalar_cliques(problem) if not vertices
        ]

    def test_build_time_stamped(self, tiny_problem):
        assert build_vector_tree(tiny_problem).build_time_s > 0.0


class TestEngineParity:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("ordering", ["compute", "memory", "accuracy"])
    def test_randomized_parity(self, seed, ordering):
        problem = random_problem(seed)
        scalar = scalar_solve(problem, ordering)
        vector = OffloaDNNSolver(ordering=ordering).solve(problem)
        assert solution_key(scalar) == solution_key(vector)
        assert check_constraints(problem, vector).feasible

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("margin", [0, 2])
    def test_options_parity(self, seed, margin):
        problem = random_problem(seed)
        solution = OffloaDNNSolver(slice_margin_rbs=margin).solve(problem)
        assert solution_key(solution) == solution_key(
            scalar_solve(problem, margin=margin)
        )

    def test_paper_scale_parity(self):
        from repro.workloads.largescale import RequestRate, large_scale_problem

        for rate in RequestRate:
            problem = large_scale_problem(rate)
            scalar = scalar_solve(problem)
            vector = OffloaDNNSolver().solve(problem)
            assert solution_key(scalar) == solution_key(vector)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ordering", ["compute", "memory", "accuracy"])
    @pytest.mark.parametrize("geometry", sorted(WALK_GEOMETRIES))
    @pytest.mark.parametrize("warm", [False, True])
    def test_walk_parity_where_the_fallback_runs(self, seed, ordering, geometry, warm):
        problem = WALK_GEOMETRIES[geometry](seed)
        memo = {} if warm else None
        tree = build_vector_tree(problem, memo)
        if warm:
            tree = build_vector_tree(problem, memo)
            assert tree.cached_cliques == len(tree.cliques)
        walked = first_branch(tree, problem.budgets, ordering)
        oracle = scalar_first_branch(problem, ordering)
        assert branch_key(tree, walked) == item_branch_key(oracle)
        assert solution_key(allocate(tree, walked)) == solution_key(
            item_allocate(problem, oracle)
        )

    def test_the_fallback_corners_are_reached(self):
        """The parity above is not vacuous: under the compute ordering its
        geometries send heads through the feasible() scan, leave layers
        without a head and share demand rows between layers."""
        seen = set()
        for geometry, build in WALK_GEOMETRIES.items():
            for seed in range(6):
                problem = build(seed)
                tree = build_vector_tree(problem)
                heads = tree_module._clique_heads(tree.cliques, problem.budgets.radio_blocks)
                spy = mock.patch.object(
                    VectorClique, "feasible", autospec=True,
                    side_effect=VectorClique.feasible,
                )
                with spy as scans:
                    first_branch(tree, problem.budgets)
                if scans.call_count:
                    seen.add(f"{geometry}: head misses memory")
                if any(h < 0 and len(c) for h, c in zip(heads, tree.cliques)):
                    seen.add(f"{geometry}: no head")
                # replicas read the same rows of the same columns (rows
                # of two specs only meet where both are empty)
                rows = [(id(c.columns), c.lo) for c in tree.cliques if len(c)]
                if len(set(rows)) < len(rows):
                    seen.add(f"{geometry}: shared demand")
        assert seen >= {
            "tight_memory: head misses memory",
            "starved_radio: no head",
            "replicated: head misses memory",
            "replicated: shared demand",
            "deshared: head misses memory",
        }

    def test_a_settled_path_still_compares_its_zero_increment(self):
        """Deployed block by block, task 2's path ends 1 ulp above the limit
        its summed increment fitted; its replica, whose increment is 0, must
        still be compared and rejected (``mem_used + 0 > limit``)."""
        tasks = [make_task(1, priority=0.9), make_task(2, priority=0.8)]
        tasks.append(replace(tasks[1], task_id=3, priority=0.7))
        catalog = Catalog()
        catalog.add_path(make_path(tasks[0], "c", (make_block("c", memory_gb=0.728),)))
        blocks = (make_block("a", memory_gb=1.324), make_block("b", memory_gb=0.184))
        catalog.add_path(make_path(tasks[1], "ab", blocks))
        catalog.paths_by_task[3] = catalog.paths_by_task[2]
        problem = DOTProblem(
            tasks=tuple(tasks),
            catalog=catalog,
            budgets=Budgets(
                compute_time_s=10.0, training_budget_s=1000.0,
                memory_gb=2.2359999999989997, radio_blocks=100,
            ),
        )
        tree = build_vector_tree(problem)
        walked = first_branch(tree, problem.budgets)
        assert [
            clique.variant_path_id(pick) if pick >= 0 else None
            for clique, pick in zip(tree.cliques, walked)
        ] == ["c", "ab", None]
        assert branch_key(tree, walked) == item_branch_key(scalar_first_branch(problem))

    def test_zero_headroom_parity(self):
        problem = random_problem(3)
        empty = DOTProblem(
            tasks=problem.tasks,
            catalog=problem.catalog,
            budgets=Budgets(
                compute_time_s=0.0, training_budget_s=1000.0,
                memory_gb=0.0, radio_blocks=0,
            ),
            radio=problem.radio,
            alpha=problem.alpha,
        )
        scalar = scalar_solve(empty)
        vector = OffloaDNNSolver().solve(empty)
        assert solution_key(scalar) == solution_key(vector)
        assert vector.admitted_task_count == 0


class TestTimingAccounting:
    def test_solve_time_excludes_build_uniformly(self, tiny_problem):
        """Memo-warm or cold, solve_time_s covers selection + allocation
        only; the build cost is reported separately."""
        solver = OffloaDNNSolver()
        memo: dict = {}
        cold = solver.solve(tiny_problem, memo=memo)
        warm = solver.solve(tiny_problem, memo=memo)
        for sol in (cold, warm):
            assert sol.tree_build_time_s > 0.0
            assert sol.solve_time_s > 0.0
            assert sol.total_time_s == pytest.approx(
                sol.tree_build_time_s + sol.solve_time_s
            )

    def test_vector_engine_stamps_build_time(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        assert solution.tree_build_time_s > 0.0
        assert solution.solve_time_s > 0.0

    def test_optimal_solver_stamps_build_time(self, tiny_problem):
        from repro.core.optimal import OptimalSolver

        solution = OptimalSolver().solve(tiny_problem)
        assert solution.tree_build_time_s > 0.0

    def test_baselines_split_build_time(self, tiny_problem):
        from repro.baselines.greedy import GreedyNoSharingSolver
        from repro.baselines.random_policy import RandomPathSolver

        for solver in (GreedyNoSharingSolver(), RandomPathSolver()):
            solution = solver.solve(tiny_problem)
            assert solution.tree_build_time_s > 0.0
            assert solution.solve_time_s > 0.0

    def test_serialize_roundtrips_build_time(self, tiny_problem, tmp_path):
        from repro.core.serialize import (
            dump_solution,
            load_solution,
            solution_from_dict,
            solution_to_dict,
        )

        solution = OffloaDNNSolver().solve(tiny_problem)
        out = tmp_path / "solution.json"
        dump_solution(solution, out)
        loaded = load_solution(out, tiny_problem)
        assert loaded.tree_build_time_s == pytest.approx(
            solution.tree_build_time_s
        )
        # pre-scaling dumps lack the field and default to 0
        legacy = solution_to_dict(solution)
        legacy.pop("tree_build_time_s")
        assert solution_from_dict(legacy, tiny_problem).tree_build_time_s == 0.0


# ---------------------------------------------------------------------------
# The batched clique build against the scalar reference, off the seeds' path
# ---------------------------------------------------------------------------

#: few distinct costs over many ids: path sums collide all the time
_POOL = tuple(
    make_block(
        f"b{i}",
        compute_time_s=(0.004, 0.008)[i % 2],
        memory_gb=(0.25, 0.5)[(i // 2) % 2],
    )
    for i in range(8)
)
#: "half" and "alt" carry the same bits, so variants of one path tie too
_QUALITIES = (
    QualityLevel("full", 350_000.0),
    QualityLevel("half", 175_000.0, accuracy_factor=0.92),
    QualityLevel("alt", 175_000.0, accuracy_factor=0.9),
    QualityLevel("low", 50_000.0, accuracy_factor=0.85),
)


@st.composite
def tie_heavy_problems(draw) -> DOTProblem:
    """Ties on every numeric sort key, filtered-out and path-less tasks,
    multi-quality tasks, bits-per-RB overrides, memo replicas."""
    tasks, overrides = [], {}
    catalog = Catalog()
    for tid in range(1, draw(st.integers(1, 6)) + 1):
        qualities = tuple(
            draw(st.lists(st.sampled_from(_QUALITIES), min_size=1, max_size=3,
                          unique=True))
        )
        task = replace(
            make_task(
                tid,
                priority=draw(st.sampled_from([0.2, 0.5, 0.9])),
                # 0.99 filters every variant on accuracy, 0.005 on latency
                min_accuracy=draw(st.sampled_from([0.5, 0.8, 0.99])),
                max_latency_s=draw(st.sampled_from([0.3, 0.05, 0.005])),
            ),
            qualities=qualities,
        )
        tasks.append(task)
        # path ids in an order unrelated to the insertion order
        labels = draw(st.permutations("abcd"))
        for label in labels[: draw(st.integers(1, 4))]:
            blocks = tuple(
                draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3))
            )
            accuracy = draw(st.sampled_from([0.7, 0.9, 0.95]))
            catalog.add_path(make_path(task, f"t{tid}-{label}", blocks, accuracy))
    # replicas share the base tuple by identity (the build memo), except
    # where a bits-per-RB override splits them off again
    for base in draw(st.lists(st.sampled_from(tasks), max_size=4)):
        tid = len(tasks) + 1
        priority = draw(st.sampled_from([0.3, 0.9]))
        tasks.append(replace(base, task_id=tid, priority=priority))
        catalog.paths_by_task[tid] = catalog.paths_by_task[base.task_id]
    for task in tasks:
        if draw(st.integers(0, 3)) == 0:
            overrides[task.task_id] = draw(st.sampled_from([175_000.0, 700_000.0]))
    problem = DOTProblem(
        tasks=tuple(tasks),
        catalog=catalog,
        budgets=Budgets(
            compute_time_s=draw(st.sampled_from([0.2, 3.0])),
            training_budget_s=1000.0,
            memory_gb=draw(st.sampled_from([0.5, 2.0, 8.0])),
            radio_blocks=draw(st.sampled_from([3, 20, 100])),
        ),
        radio=RadioModel(default_bits_per_rb=350_000.0, per_task_bits_per_rb=overrides),
    )
    # a task may lose its candidates after validation (catalog churn)
    if draw(st.booleans()):
        catalog.paths_by_task[draw(st.sampled_from(tasks)).task_id] = ()
    return problem


class TestBatchedBuild:
    @settings(max_examples=150, deadline=None)
    @given(problem=tie_heavy_problems(), chunk=st.integers(1, 4))
    def test_equals_scalar_build(self, problem, chunk):
        # the chunk boundary falls inside the task list
        with mock.patch.object(tree_module, "_CHUNK_TASKS", chunk):
            tree = build_vector_tree(problem)
        assert _tree_rows(tree) == _oracle_rows(problem)
        for ordering in ("compute", "memory", "accuracy"):
            assert solution_key(scalar_solve(problem, ordering)) == solution_key(
                OffloaDNNSolver(ordering=ordering).solve(problem)
            )

    def test_path_id_breaks_full_ties(self):
        """Equal compute, memory and bits: the later-inserted ``a`` sorts
        before ``z``, as the scalar sort key orders them."""
        task = make_task(1)
        catalog = Catalog()
        catalog.add_path(make_path(task, "z", (_POOL[0],)))
        catalog.add_path(make_path(task, "a", (_POOL[4],)))
        problem = DOTProblem(
            tasks=(task,),
            catalog=catalog,
            budgets=Budgets(
                compute_time_s=1.0, training_budget_s=1000.0,
                memory_gb=8.0, radio_blocks=50,
            ),
        )
        tree = build_vector_tree(problem)
        (clique,) = tree.cliques
        assert [clique.variant_path_id(i) for i in range(len(clique))] == ["a", "z"]
        assert _tree_rows(tree) == _oracle_rows(problem)

    def test_one_task_build_equals_its_clique_in_a_batch(self):
        problem = random_problem(11, num_tasks=50)
        tasks = list(problem.tasks_by_priority())
        paths = [problem.catalog.paths_for(task) for task in tasks]
        bits = [problem.radio.bits_per_rb(task) for task in tasks]
        batch = build_cliques(tasks, paths, bits)
        assert len(batch) == 50
        for spec, in_batch in zip(zip(tasks, paths, bits), batch):
            (alone,) = build_cliques(*([field] for field in spec))
            assert alone.task is in_batch.task
            assert alone.source_paths is in_batch.source_paths
            assert alone.bits_per_rb == in_batch.bits_per_rb
            assert alone.filtered_static == in_batch.filtered_static
            for name in ("path_pos", "quality_pos", "accuracy", "min_latency_rbs"):
                np.testing.assert_array_equal(
                    getattr(alone.columns, name)[alone.lo : alone.hi],
                    getattr(in_batch.columns, name)[in_batch.lo : in_batch.hi],
                    err_msg=name,
                )

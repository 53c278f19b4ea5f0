"""Unit tests for quality-level (semantic compression) adaptation.

The formulation associates each task with quality levels ``q ∈ Q_τ``
that trade bits per image against attainable accuracy.  The tree
expands every path across the task's quality levels, so the solvers can
pick compressed inputs to save radio resources.
"""

from __future__ import annotations

import pytest

from repro.core.catalog import Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.task import QualityLevel, Task
from repro.core.tree import build_vector_tree
from tests.conftest import make_block, make_path


def _multi_quality_problem(min_accuracy: float, radio_blocks: int = 50) -> DOTProblem:
    q_low = QualityLevel("low", 100_000.0, accuracy_factor=0.9)
    q_high = QualityLevel("high", 350_000.0, accuracy_factor=1.0)
    task = Task(
        task_id=1, name="t", method="cls", priority=0.9, request_rate=5.0,
        min_accuracy=min_accuracy, max_latency_s=0.4, qualities=(q_low, q_high),
    )
    catalog = Catalog()
    catalog.add_path(make_path(task, "p", (make_block("b", compute_time_s=0.01),),
                               accuracy=0.9))
    return DOTProblem(
        tasks=(task,),
        catalog=catalog,
        budgets=Budgets(2.5, 1000.0, 8.0, radio_blocks),
        radio=RadioModel(default_bits_per_rb=350_000.0),
    )


class TestQualityExpansion:
    def test_tree_has_one_vertex_per_quality(self):
        problem = _multi_quality_problem(min_accuracy=0.5)
        (clique,) = build_vector_tree(problem).cliques
        assert len(clique) == 2
        names = {v.path.quality.name for v in clique.items(problem.budgets.radio_blocks)}
        assert names == {"low", "high"}

    def test_accuracy_filter_prunes_compressed_variant(self):
        # 0.9 * 0.9 = 0.81 < 0.85, so the low quality is infeasible
        problem = _multi_quality_problem(min_accuracy=0.85)
        (clique,) = build_vector_tree(problem).cliques
        assert len(clique) == 1
        assert clique.variant_path(0).quality.name == "high"

    def test_equal_compute_prefers_fewer_bits(self):
        """Both variants have the same compute time; the tie-break picks
        the compressed one, saving RBs (the semantic-compression win)."""
        problem = _multi_quality_problem(min_accuracy=0.5)
        solution = OffloaDNNSolver().solve(problem)
        assignment = solution.assignment(1)
        assert assignment.path.quality.name == "low"
        # 5 req/s x 100 kb at 0.35 Mbps -> 2 RBs instead of 5
        assert assignment.radio_blocks <= 2
        assert check_constraints(problem, solution).feasible

    def test_quality_variants_get_suffixed_ids(self):
        # the catalog path carries the low quality, so the expanded
        # high-quality variant is the renamed one
        problem = _multi_quality_problem(min_accuracy=0.5)
        (clique,) = build_vector_tree(problem).cliques
        ids = sorted(clique.variant_path_id(i) for i in range(len(clique)))
        assert ids == ["p", "p@high"]

    def test_tight_radio_only_compressed_feasible(self):
        """With 1 RB, only the compressed variant can meet the rate
        constraint with a reasonable admission ratio."""
        problem = _multi_quality_problem(min_accuracy=0.5, radio_blocks=2)
        solution = OffloaDNNSolver().solve(problem)
        assignment = solution.assignment(1)
        assert assignment.admitted
        assert assignment.path.quality.name == "low"

    def test_single_quality_tasks_unchanged(self, tiny_problem):
        tree = build_vector_tree(tiny_problem)
        for clique in tree.cliques:
            for vertex in clique.items(tiny_problem.budgets.radio_blocks):
                assert "@" not in vertex.path.path_id

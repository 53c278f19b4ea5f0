"""Round-trip invariants of the task-aggregation layer."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate import AggregateSolver, aggregate_problem
from repro.core.catalog import Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints, objective_value
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.solution import Assignment, AssignmentRuns
from repro.workloads.largescale import (
    RequestRate,
    large_scale_problem,
    replicated_large_scale_problem,
)
from repro.workloads.smallscale import serving_small_scale_problem, small_scale_problem
from tests.oracles import allocate_both_ways, tuple_signature_groups
from tests.test_core_vectorized import random_problem


#: every builder problem without replicas
UNREPLICATED = {
    **{f"table4-{rate.label}": lambda rate=rate: large_scale_problem(rate) for rate in RequestRate},
    "replicas1-medium": lambda: replicated_large_scale_problem(RequestRate.MEDIUM, replicas=1),
    **{f"small{t}": lambda t=t: small_scale_problem(t) for t in range(1, 6)},
    **{f"serving{t}": lambda t=t: serving_small_scale_problem(t) for t in range(1, 6)},
}


@pytest.fixture(scope="module")
def replicated():
    # 200 tasks = 20 classes x 10 replicas
    return replicated_large_scale_problem(RequestRate.MEDIUM, replicas=10)


class TestAggregateProblem:
    def test_groups_replicas_into_base_classes(self, replicated):
        plan = aggregate_problem(replicated)
        assert plan.num_groups == 20
        assert plan.compression == pytest.approx(10.0)
        for group in plan.groups.values():
            assert group.weight == 10
            # representative is the smallest member id, members sorted
            assert group.member_ids[0] == group.representative.task_id
            assert list(group.member_ids) == sorted(group.member_ids)

    def test_group_members_share_signature(self, replicated):
        plan = aggregate_problem(replicated)
        tasks_by_id = {t.task_id: t for t in replicated.tasks}
        for group in plan.groups.values():
            rep = group.representative
            rep_paths = replicated.catalog.paths_for(rep)
            for member_id in group.member_ids:
                member = tasks_by_id[member_id]
                assert member.priority == rep.priority
                assert member.request_rate == rep.request_rate
                assert member.min_accuracy == rep.min_accuracy
                assert member.max_latency_s == rep.max_latency_s
                assert replicated.catalog.paths_for(member) is rep_paths

    def test_distinct_tasks_stay_separate(self, tiny_problem):
        # three distinct priorities and path sets -> no pooling
        plan = aggregate_problem(tiny_problem)
        assert plan.num_groups == len(tiny_problem.tasks)
        assert plan.compression == pytest.approx(1.0)

    def test_meta_problem_preserves_budgets_and_radio(self, replicated):
        plan = aggregate_problem(replicated)
        assert plan.meta_problem.budgets == replicated.budgets
        assert plan.meta_problem.radio is replicated.radio
        assert plan.meta_problem.alpha == replicated.alpha


class TestAggregateSolver:
    def test_expansion_covers_every_task(self, replicated):
        solution = AggregateSolver().solve(replicated)
        assert set(solution.assignments) == {
            t.task_id for t in replicated.tasks
        }

    def test_expanded_solution_is_feasible(self, replicated):
        solution = AggregateSolver().solve(replicated)
        report = check_constraints(replicated, solution)
        assert report.feasible, report

    def test_admission_equivalent_to_direct_solve(self, replicated):
        """Aggregation changes the cascade's granularity, not its
        substance: weighted admission and pool usage match the direct
        per-task vector solve to first order."""
        agg = AggregateSolver().solve(replicated)
        direct = OffloaDNNSolver().solve(replicated)
        assert agg.weighted_admission_ratio == pytest.approx(
            direct.weighted_admission_ratio, rel=0.02, abs=0.05
        )
        assert agg.total_radio_blocks == pytest.approx(
            direct.total_radio_blocks, rel=0.02, abs=0.5
        )
        assert agg.total_memory_gb == pytest.approx(direct.total_memory_gb)

    @pytest.mark.parametrize("name", sorted(UNREPLICATED))
    def test_without_replicas_the_solves_agree_task_by_task(self, name):
        """With one member per group the group cascade *is* the per-task
        one, rejections included: a placed task the cascade rejects keeps
        its path at z = 0, r = 0 under both solvers."""
        problem = UNREPLICATED[name]()
        assert aggregate_problem(problem).num_groups == len(problem.tasks)
        agg = AggregateSolver().solve(problem)
        direct = OffloaDNNSolver().solve(problem)

        def key(sol):
            return sorted(
                (tid, a.path.path_id if a.path else None, a.admission_ratio.hex(),
                 a.radio_blocks)
                for tid, a in sol.assignments.items()
            )

        assert key(agg) == key(direct)
        if name == "table4-high":
            # the pools run out: some placed tasks are rejected on their path
            assert any(
                a.path is not None and not a.admitted for a in agg.assignments.values()
            )

    def test_members_of_a_group_share_the_path_object(self, replicated):
        solution = AggregateSolver().solve(replicated)
        plan = aggregate_problem(replicated)
        for group in plan.groups.values():
            paths = {
                id(solution.assignments[mid].path)
                for mid in group.member_ids
                if solution.assignments[mid].path is not None
            }
            assert len(paths) <= 1

    def test_zero_headroom_rejects_everything(self, replicated):
        empty = DOTProblem(
            tasks=replicated.tasks,
            catalog=replicated.catalog,
            budgets=Budgets(
                compute_time_s=0.0, training_budget_s=1000.0,
                memory_gb=0.0, radio_blocks=0,
            ),
            radio=replicated.radio,
            alpha=replicated.alpha,
        )
        solution = AggregateSolver().solve(empty)
        assert solution.admitted_task_count == 0
        assert check_constraints(empty, solution).feasible

    def test_timing_fields_stamped(self, replicated):
        solution = AggregateSolver().solve(replicated)
        assert solution.tree_build_time_s > 0.0
        assert solution.solve_time_s > 0.0
        assert solution.solver_name == "OffloaDNN-aggregated"


# ----------------------------------------------------------------------
# parity with the tuple-signature grouping and the per-member expansion
# ----------------------------------------------------------------------


def population_problem(seed: int, copies: int, budget_scale: float) -> DOTProblem:
    """``random_problem(seed)`` with every class replicated under shuffled ids.

    Replicas share the class's path tuple; each gets its own value-equal
    ``qualities`` tuple, some get a ``bits_per_rb`` override (which splits
    their group), and the task tuple is in no particular id order.
    """
    base = random_problem(seed, num_tasks=5)
    rng = np.random.default_rng(seed + 1)
    ids = rng.permutation(np.arange(1, len(base.tasks) * copies + 1)).tolist()
    tasks, catalog = [], Catalog()
    overrides = {}
    for cls in base.tasks:
        for _ in range(copies):
            task_id = ids.pop()
            tasks.append(
                replace(cls, task_id=task_id, qualities=tuple(replace(q) for q in cls.qualities))
            )
            catalog.paths_by_task[task_id] = base.catalog.paths_by_task[cls.task_id]
            if cls.task_id in base.radio.per_task_bits_per_rb:
                overrides[task_id] = base.radio.per_task_bits_per_rb[cls.task_id]
            elif rng.random() < 0.15:
                overrides[task_id] = 700_000.0
    order = rng.permutation(len(tasks))
    return DOTProblem(
        tasks=tuple(tasks[i] for i in order),
        catalog=catalog,
        budgets=replace(
            base.budgets,
            compute_time_s=base.budgets.compute_time_s * budget_scale,
            radio_blocks=int(base.budgets.radio_blocks * budget_scale),
        ),
        radio=RadioModel(default_bits_per_rb=350_000.0, per_task_bits_per_rb=overrides),
        alpha=base.alpha,
    )


def assert_same_solution(problem: DOTProblem, runs, twin) -> None:
    assert isinstance(runs.assignments, AssignmentRuns)
    assert type(twin.assignments) is dict
    got, want = list(runs.assignments.items()), list(twin.assignments.items())
    assert got == want  # same keys, same order, equal assignments
    for (_, a), (_, b) in zip(got, want):
        assert a.path is b.path and a.task is b.task
    assert len(runs.assignments) == len(want)
    assert runs.assignments == twin.assignments and twin.assignments == runs.assignments
    # every fold adds member by member: floats are the twin's, bit for bit
    for name in (
        "weighted_admission_ratio", "total_radio_blocks", "total_inference_compute_s",
        "total_memory_gb", "total_training_cost_s", "admitted_task_count",
    ):
        assert getattr(runs, name) == getattr(twin, name), name
    assert list(runs.active_blocks()) == list(twin.active_blocks())
    assert runs.admission_vector() == twin.admission_vector()
    assert check_constraints(problem, runs) == check_constraints(problem, twin)
    assert objective_value(problem, runs) == objective_value(problem, twin)


def shape(plan, chosen, runs) -> set[str]:
    """Which corners of the replay one allocation went through."""
    seen = set()
    if any(pick < 0 for pick in chosen.values()):
        seen.add("rejected group")
    group_of = {tid: g for g in plan.groups.values() for tid in g.member_ids}
    for assignment, ids in runs.assignments.runs:
        group = group_of[ids[0]]
        if assignment.admitted and len(ids) == 1 and group.weight > 1:
            seen.add("run of one")
        if not assignment.admitted and chosen[group.representative.task_id] >= 0:
            # a placed group's rejected members keep its path
            assert assignment.path is not None
            seen.add("rejected tail" if len(ids) < group.weight else "placed group rejected")
    return seen


class TestRunsMatchTheExpansion:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        copies=st.integers(1, 9),
        budget_scale=st.sampled_from([0.0, 0.2, 1.0, 4.0]),
    )
    def test_groups_and_assignments(self, seed, copies, budget_scale):
        problem = population_problem(seed, copies, budget_scale)
        solver = AggregateSolver()
        plan, _chosen, runs, twin = allocate_both_ways(solver, problem)
        assert [
            (rep_id, group.representative.task_id, group.member_ids)
            for rep_id, group in plan.groups.items()
        ] == [(rep_id, rep_id, ids) for rep_id, ids in tuple_signature_groups(problem)]
        assert [t.task_id for t in plan.meta_problem.tasks] == list(plan.groups)
        for group in plan.groups.values():
            assert all(type(i) is int for i in group.member_ids)
        assert_same_solution(problem, runs, twin)

    def test_the_corners_are_reached(self):
        """The property above is not vacuous: over a fixed sweep the group
        cascade hits pool-bound runs of one, a group the pools run out in
        the middle of, placed groups rejected whole, groups the selection
        rejected and exhausted budgets."""
        seen: set[str] = set()
        for seed in range(12):
            for budget_scale in (0.0, 0.2, 1.0, 4.0):
                problem = population_problem(seed, 6, budget_scale)
                solver = AggregateSolver()
                plan, chosen, runs, twin = allocate_both_ways(solver, problem)
                assert_same_solution(problem, runs, twin)
                seen |= shape(plan, chosen, runs)
                if budget_scale == 0.0:
                    assert runs.admitted_task_count == 0
        assert seen >= {
            "run of one", "rejected tail", "rejected group", "placed group rejected"
        }

    def test_value_equal_qualities_pool(self):
        problem = population_problem(3, 4, 1.0)
        distinct = {id(t.qualities) for t in problem.tasks}
        assert len(distinct) == len(problem.tasks)
        assert aggregate_problem(problem).num_groups < len(problem.tasks)

    def test_tasks_differing_only_in_method_pool(self):
        """The signature holds what a solver reads.  ``method`` is not in
        it: the catalog already turned it into the path tuple, so tasks
        that differ in method alone under one tuple share a group."""
        problem = population_problem(5, 4, 1.0)
        relabelled = replace(
            problem,
            tasks=tuple(
                replace(task, method="detection") if i % 2 else task
                for i, task in enumerate(problem.tasks)
            ),
        )
        method_of = {task.task_id: task.method for task in relabelled.tasks}
        solver = AggregateSolver()
        plan, _chosen, runs, twin = allocate_both_ways(solver, relabelled)
        groups = [(rep_id, group.member_ids) for rep_id, group in plan.groups.items()]
        assert groups == tuple_signature_groups(relabelled)
        assert groups == [
            (rep_id, group.member_ids)
            for rep_id, group in aggregate_problem(problem).groups.items()
        ]
        assert any(
            len({method_of[i] for i in group.member_ids}) == 2
            for group in plan.groups.values()
        )
        assert_same_solution(relabelled, runs, twin)

    def test_lookups(self, replicated):
        solution = AggregateSolver().solve(replicated)
        mapping = solution.assignments
        some_id = replicated.tasks[57].task_id
        assert mapping[np.int64(some_id)] == mapping[some_id]
        assert mapping[some_id].task is replicated.tasks[57]
        assert np.int64(some_id) in mapping and some_id in mapping
        assert solution.assignment(replicated.tasks[57]) == mapping[some_id]
        assert 10**9 not in mapping
        with pytest.raises(KeyError):
            mapping[10**9]
        assert list(mapping.keys()) == list(mapping)
        assert [a.task.task_id for a in mapping.values()] == list(mapping)

    def test_a_run_that_breaks_a_limit_names_every_member(self, replicated):
        solution = AggregateSolver().solve(replicated)
        runs = solution.assignments.runs
        index = next(i for i, (a, ids) in enumerate(runs) if a.admitted and len(ids) > 1)
        broken, ids = runs[index]
        starved = replace(broken, radio_blocks=1)  # (1e)/(1g) cannot hold on one RB
        tampered = replace(
            solution,
            assignments=AssignmentRuns(
                [*runs[:index], (starved, ids), *runs[index + 1 :]], replicated.task
            ),
        )
        twin = replace(tampered, assignments=dict(tampered.assignments))
        report = check_constraints(replicated, tampered)
        assert not report.feasible
        assert report == check_constraints(replicated, twin)
        for task_id in ids:
            assert any(v.startswith(f"task {task_id}:") for v in report.violations)

    def test_missing_members_are_reported_in_task_order(self, replicated):
        solution = AggregateSolver().solve(replicated)
        (first, ids), *rest = solution.assignments.runs
        short = replace(
            solution, assignments=AssignmentRuns([(first, ids[2:]), *rest], replicated.task)
        )
        report = check_constraints(replicated, short)
        gone = [t.task_id for t in replicated.tasks if t.task_id in ids[:2]]
        assert f"tasks without an assignment: {gone}" in report.violations


class TestPopulationScaling:
    def test_no_per_member_assignment_is_built(self, monkeypatch):
        """5x10^4 users: solve, constraint check and the aggregate
        properties stay O(groups) in ``Assignment`` objects, and report the
        per-member expansion's numbers bit for bit."""
        problem = replicated_large_scale_problem(RequestRate.MEDIUM, 2_500)
        built = []
        validate = Assignment.__post_init__

        def counting(self):
            built.append(None)
            validate(self)

        monkeypatch.setattr(Assignment, "__post_init__", counting)
        solver = AggregateSolver()
        solution = solver.solve(problem)
        report = check_constraints(problem, solution)
        numbers = (
            solution.weighted_admission_ratio, solution.total_radio_blocks,
            solution.total_inference_compute_s, solution.admitted_task_count,
        )
        assert len(built) < 1_000
        assert len(solution.assignments) == 50_000
        # nor a per-member index: those are built by the first lookup
        assert "_run_of" not in vars(solution.assignments)
        assert "_tasks_by_id" not in vars(problem)
        monkeypatch.undo()

        _plan, _chosen, _runs, twin = allocate_both_ways(solver, problem)
        expanded = check_constraints(problem, twin)
        assert report.feasible and expanded.feasible
        assert (report.memory_used_gb, report.compute_used_s, report.radio_used_blocks) == (
            expanded.memory_used_gb, expanded.compute_used_s, expanded.radio_used_blocks
        )
        assert numbers == (
            twin.weighted_admission_ratio, twin.total_radio_blocks,
            twin.total_inference_compute_s, twin.admitted_task_count,
        )

"""Round-trip tests for the JSON serialization of problems/solutions."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.catalog import DEFAULT_BATCH_MARGINAL, Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import objective_value
from repro.core.serialize import (
    FORMAT_VERSION,
    dump_problem,
    dump_solution,
    load_problem,
    load_solution,
    problem_from_dict,
    problem_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from repro.workloads.smallscale import small_scale_problem


class TestProblemRoundTrip:
    def test_round_trip_preserves_structure(self, tiny_problem):
        data = problem_to_dict(tiny_problem)
        restored = problem_from_dict(data)
        assert len(restored.tasks) == len(tiny_problem.tasks)
        assert restored.budgets == tiny_problem.budgets
        assert restored.alpha == tiny_problem.alpha
        for task in tiny_problem.tasks:
            original = tiny_problem.catalog.paths_for(task)
            loaded = restored.catalog.paths_for(task)
            assert [p.path_id for p in loaded] == [p.path_id for p in original]
            assert [p.accuracy for p in loaded] == [p.accuracy for p in original]

    def test_shared_blocks_stay_shared(self, tiny_problem):
        restored = problem_from_dict(problem_to_dict(tiny_problem))
        blocks = restored.catalog.all_blocks()
        assert "shared" in blocks
        # block objects are shared instances across paths after decode
        paths = restored.catalog.paths_for(0)
        shared_objs = {
            id(b) for p in restored.catalog.paths_by_task.values()
            for pp in [p] for path in pp for b in path.blocks
            if b.block_id == "shared"
        }
        assert len(shared_objs) == 1
        del paths

    def test_round_trip_solver_equivalence(self, tiny_problem):
        """Solving the restored problem must reproduce the original
        solution's decisions."""
        restored = problem_from_dict(problem_to_dict(tiny_problem))
        a = OffloaDNNSolver().solve(tiny_problem)
        b = OffloaDNNSolver().solve(restored)
        for task in tiny_problem.tasks:
            assert (
                a.assignment(task).path.path_id == b.assignment(task).path.path_id
            )
            assert a.assignment(task).admission_ratio == pytest.approx(
                b.assignment(task).admission_ratio
            )

    def test_version_check(self, tiny_problem):
        data = problem_to_dict(tiny_problem)
        data["version"] = 99
        with pytest.raises(ValueError, match="unsupported serialization version"):
            problem_from_dict(data)

    def test_file_round_trip(self, tiny_problem, tmp_path):
        file = tmp_path / "problem.json"
        dump_problem(tiny_problem, str(file))
        restored = load_problem(str(file))
        assert len(restored.tasks) == 3

    def test_scenario_problem_round_trip(self):
        problem = small_scale_problem(3)
        restored = problem_from_dict(problem_to_dict(problem))
        a = OffloaDNNSolver().solve(problem)
        b = OffloaDNNSolver().solve(restored)
        assert objective_value(problem, a) == pytest.approx(
            objective_value(restored, b)
        )


class TestBlockBatchLaw:
    """The block's batch law (``batch_marginal``) in problem documents."""

    @given(
        laws=st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False), min_size=1,
            max_size=4,
        )
    )
    def test_round_trip_through_json(self, laws):
        problem = small_scale_problem(2)
        path = problem.catalog.paths_for(1)[0]
        blocks = tuple(
            replace(block, batch_marginal=laws[i % len(laws)])
            for i, block in enumerate(path.blocks)
        )
        problem = replace(
            problem, tasks=problem.tasks[:1],
            catalog=Catalog({1: (replace(path, blocks=blocks),)}),
        )
        restored = problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
        assert restored.catalog.paths_for(1)[0].blocks == blocks

    def test_a_document_without_the_key_loads_with_the_default(self, tiny_problem):
        # written before blocks carried their law
        data = problem_to_dict(tiny_problem)
        for block in data["blocks"]:
            del block["batch_marginal"]
        restored = problem_from_dict(data)
        assert {
            b.batch_marginal for b in restored.catalog.all_blocks().values()
        } == {DEFAULT_BATCH_MARGINAL}

    @pytest.mark.parametrize(
        "value, complaint",
        [
            (-0.25, r"blocks\[1\]\['batch_marginal'\] must be >= 0, got -0.25"),
            (float("inf"), r"blocks\[1\]\['batch_marginal'\] must be a finite number"),
            ("0.7", r"blocks\[1\]\['batch_marginal'\] must be a finite number"),
        ],
    )
    def test_malformed_law_is_rejected_by_name(self, tiny_problem, value, complaint):
        data = problem_to_dict(tiny_problem)
        data["blocks"][1]["batch_marginal"] = value
        with pytest.raises(ValueError, match=complaint):
            problem_from_dict(data)


class TestSolutionRoundTrip:
    def test_round_trip_preserves_assignments(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        data = solution_to_dict(solution)
        assert data["version"] == FORMAT_VERSION
        restored = solution_from_dict(data, tiny_problem)
        for task in tiny_problem.tasks:
            original = solution.assignment(task)
            loaded = restored.assignment(task)
            assert loaded.admission_ratio == pytest.approx(original.admission_ratio)
            assert loaded.radio_blocks == original.radio_blocks
            assert loaded.path.path_id == original.path.path_id

    def test_objective_preserved(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        restored = solution_from_dict(solution_to_dict(solution), tiny_problem)
        assert objective_value(tiny_problem, restored) == pytest.approx(
            objective_value(tiny_problem, solution)
        )

    def test_rejected_task_round_trip(self, tiny_problem):
        from repro.core.solution import Assignment, DOTSolution

        solution = DOTSolution()
        for task in tiny_problem.tasks:
            solution.assignments[task.task_id] = Assignment(
                task=task, path=None, admission_ratio=0.0, radio_blocks=0
            )
        restored = solution_from_dict(solution_to_dict(solution), tiny_problem)
        assert restored.admitted_task_count == 0

    def test_unknown_path_rejected(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        data = solution_to_dict(solution)
        data["assignments"][0]["path_id"] = "nonexistent"
        with pytest.raises(KeyError, match="unknown path"):
            solution_from_dict(data, tiny_problem)

    def test_file_round_trip(self, tiny_problem, tmp_path):
        solution = OffloaDNNSolver().solve(tiny_problem)
        file = tmp_path / "solution.json"
        dump_solution(solution, str(file))
        restored = load_solution(str(file), tiny_problem)
        assert restored.admitted_task_count == solution.admitted_task_count

    def test_quality_variant_round_trip(self):
        """A solution using a quality-expanded path restores correctly."""
        from repro.core.catalog import Catalog
        from repro.core.problem import Budgets, DOTProblem, RadioModel
        from repro.core.task import QualityLevel, Task
        from tests.conftest import make_block, make_path

        q_low = QualityLevel("low", 100_000.0, accuracy_factor=0.9)
        q_high = QualityLevel("high", 350_000.0, accuracy_factor=1.0)
        task = Task(
            task_id=1, name="t", method="cls", priority=0.9, request_rate=5.0,
            min_accuracy=0.5, max_latency_s=0.4, qualities=(q_low, q_high),
        )
        catalog = Catalog()
        catalog.add_path(make_path(task, "p", (make_block("b"),), accuracy=0.9))
        problem = DOTProblem(
            tasks=(task,), catalog=catalog,
            budgets=Budgets(2.5, 1000.0, 8.0, 50),
            radio=RadioModel(default_bits_per_rb=350_000.0),
        )
        solution = OffloaDNNSolver().solve(problem)
        restored = solution_from_dict(solution_to_dict(solution), problem)
        assert (
            restored.assignment(task).path.quality
            == solution.assignment(task).path.quality
        )


class TestRunBackedSolution:
    """A population solve keeps runs; its dump is the expanded dict's."""

    def _solve_both(self, rate: str, replicas: int):
        from repro.core.aggregate import AggregateSolver
        from repro.workloads.largescale import RequestRate, replicated_large_scale_problem
        from tests.oracles import allocate_both_ways

        problem = replicated_large_scale_problem(RequestRate[rate], replicas)
        solver = AggregateSolver()
        plan, _chosen, solution, twin = allocate_both_ways(solver, problem)
        solution.solver_name = twin.solver_name = solver.name
        return problem, plan, solution, twin

    def test_dump_is_byte_identical_to_the_expanded_twin(self):
        import json

        problem, plan, solution, twin = self._solve_both("HIGH", replicas=10)
        assert type(twin.assignments) is dict and type(solution.assignments) is not dict
        # one group is split over full, fractional and rejected members
        assert any(
            len({solution.assignment(i).admission_ratio for i in group.member_ids}) > 2
            for group in plan.groups.values()
        )
        dumped = json.dumps(solution_to_dict(solution), indent=2)
        assert dumped == json.dumps(solution_to_dict(twin), indent=2)
        restored = solution_from_dict(json.loads(dumped), problem)
        assert restored.assignments == solution.assignments
        assert restored.assignments == twin.assignments
        # a dump is in id order, so the restored sums add in another order
        assert restored.weighted_admission_ratio == pytest.approx(
            twin.weighted_admission_ratio
        )

    def test_loading_a_large_dump_resolves_each_id_once(self):
        """``DOTProblem.task`` was a linear scan, so loading T assignments
        compared T²/2 ids (a 10⁵-assignment dump effectively hung)."""
        from dataclasses import fields, replace

        from repro.core.task import Task

        class CountingTask(Task):
            reads = 0
            limit = 0

            def __getattribute__(self, name):
                if name == "task_id":
                    CountingTask.reads += 1
                    assert CountingTask.reads <= CountingTask.limit, "task ids re-scanned"
                return super().__getattribute__(name)

        problem, _plan, solution, _twin = self._solve_both("MEDIUM", replicas=1_000)
        count = len(problem.tasks)
        assert count == 20_000
        data = solution_to_dict(solution)
        CountingTask.limit = 10**9
        counted = replace(
            problem,
            tasks=tuple(
                CountingTask(**{f.name: getattr(t, f.name) for f in fields(t)})
                for t in problem.tasks
            ),
        )
        # one read to index each task, a few per entry to rebuild it
        CountingTask.reads, CountingTask.limit = 0, 6 * count
        restored = solution_from_dict(data, counted)
        assert len(restored.assignments) == count
        assert counted.task(count).task_id == count
        with pytest.raises(KeyError):
            counted.task(count + 1)

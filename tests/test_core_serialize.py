"""Round-trip tests for the JSON serialization of problems/solutions."""

from __future__ import annotations

import copy
import json
import math
from dataclasses import replace
from numbers import Real

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import DEFAULT_BATCH_MARGINAL, Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import objective_value
from repro.core.problem import Budgets, DOTProblem, RadioModel
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
from repro.core.task import QualityLevel, Task
from repro.workloads.smallscale import small_scale_problem
from tests.conftest import make_block, make_path


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


class TestWholeRadioBlocks:
    """An RB count is whole (the solver admits on the slice grid): a
    fractional one is refused by name where it is built and where it is
    loaded; a whole-valued float is accepted."""

    def test_construction(self, tiny_problem):
        from repro.core.solution import Assignment

        task = tiny_problem.tasks[0]
        for blocks in (2.5, float("nan")):
            with pytest.raises(ValueError, match="radio_blocks"):
                replace(tiny_problem.budgets, radio_blocks=blocks)
            with pytest.raises(ValueError, match="radio_blocks"):
                Assignment(task=task, path=None, admission_ratio=0.0, radio_blocks=blocks)
        assert replace(tiny_problem.budgets, radio_blocks=20.0).radio_blocks == 20
        assert Assignment(task=task, path=None, admission_ratio=0.0, radio_blocks=3.0)

    def test_load(self, tiny_problem):
        problem_doc = problem_to_dict(tiny_problem)
        problem_doc["budgets"]["radio_blocks"] = 2.5
        with pytest.raises(ValueError, match="radio_blocks"):
            problem_from_dict(problem_doc)
        solution_doc = solution_to_dict(OffloaDNNSolver().solve(tiny_problem))
        solution_doc["assignments"][0]["radio_blocks"] = 2.5
        with pytest.raises(ValueError, match="radio_blocks"):
            solution_from_dict(solution_doc, tiny_problem)
        problem_doc["budgets"]["radio_blocks"] = 50.0
        assert problem_from_dict(problem_doc).budgets == tiny_problem.budgets


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

        # at ×5 the last group the radio pool reaches holds full,
        # fractional and rejected members
        problem, plan, solution, twin = self._solve_both("HIGH", replicas=5)
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


def _documents() -> tuple[dict, dict]:
    """A small problem document that uses every optional field, and a
    solution document with a quality-expanded path and a rejected task."""
    full = QualityLevel("full", 350_000.0)
    low = QualityLevel("low", 100_000.0, accuracy_factor=0.9)
    tasks = (
        Task(task_id=1, name="a", method="classification", priority=0.9,
             request_rate=5.0, min_accuracy=0.5, max_latency_s=0.4,
             qualities=(full, low)),
        Task(task_id=2, name="b", method="detection", priority=0.5,
             request_rate=2.0, min_accuracy=0.5, max_latency_s=0.3,
             qualities=(full,), sinr_db=12.0),
    )
    trunk = replace(make_block("trunk", compute_time_s=0.004), batch_marginal=0.5)
    catalog = Catalog()
    for task in tasks:
        head = make_block(f"head{task.task_id}", training_cost_s=40.0)
        catalog.add_path(make_path(task, f"t{task.task_id}", (trunk, head)))
    rich = make_block("head1-rich", compute_time_s=0.01, training_cost_s=90.0)
    catalog.add_path(make_path(tasks[0], "t1-rich", (trunk, rich), accuracy=0.95))
    problem = DOTProblem(
        tasks=tasks, catalog=catalog, budgets=Budgets(2.5, 1000.0, 8.0, 50),
        radio=RadioModel(per_task_bits_per_rb={2: 200_000.0}),
    )
    solution = OffloaDNNSolver().solve(problem)
    document = solution_to_dict(solution)
    document["assignments"] = [
        {"task_id": 1, "path_id": "t1@low", "quality": {
            "name": "low", "bits_per_image": 100_000.0, "accuracy_factor": 0.9,
        }, "admission_ratio": 0.5, "radio_blocks": 3},
        {"task_id": 2, "path_id": None, "quality": None,
         "admission_ratio": 0.0, "radio_blocks": 0},
    ]
    return problem_to_dict(problem), document


_PROBLEM, _SOLUTION = _documents()


def _append_block_copy(problem, solution):
    problem["blocks"].append(dict(problem["blocks"][0], compute_time_s=9.0))


def _path_for_no_task(problem, solution):
    # task 1 keeps its other path, so the catalog still covers every task
    problem["paths"][1]["task_id"] = 999


def _radio_key_not_an_id(problem, solution):
    # int("02") is 2: a second entry for task 2 beside "2" would vanish
    problem["radio"]["per_task_bits_per_rb"] = {"02": 1.0}


def _repeat_assignment(problem, solution):
    solution["assignments"][1] = dict(solution["assignments"][0])


def _text_solve_time(problem, solution):
    solution["solve_time_s"] = "abc"


def _text_build_time(problem, solution):
    solution["tree_build_time_s"] = "abc"


def _quality_on_a_rejection(problem, solution):
    solution["assignments"][1]["quality"] = solution["assignments"][0]["quality"]


def _path_id_off_its_quality(problem, solution):
    # "t1@low" at t1's own quality used to load as t1
    solution["assignments"][0]["quality"] = problem["paths"][0]["quality"]


def _assignment_for_no_task(problem, solution):
    solution["assignments"][0]["task_id"] = 999


_MALFORMED = [
    (_append_block_copy, ValueError, r"blocks\[4\] repeats block_id 'trunk'"),
    (_path_for_no_task, ValueError, r"paths\[1\] names task 999, not in tasks"),
    (_radio_key_not_an_id, ValueError, r"per_task_bits_per_rb key '02' is not a task id"),
    (_repeat_assignment, ValueError, r"assignments\[1\] repeats task 1"),
    (_text_solve_time, ValueError, r"solution\['solve_time_s'\] must be a finite"),
    (_text_build_time, ValueError, r"solution\['tree_build_time_s'\] must be a finite"),
    (_quality_on_a_rejection, ValueError, r"assignments\[1\] must give both"),
    (_path_id_off_its_quality, ValueError, r"path_id 't1@low' does not fit its quality"),
    (_assignment_for_no_task, KeyError, r"assignments\[0\] names unknown task 999"),
]


class TestMalformedDocuments:
    """Each document here loaded (or raised an unnamed ``KeyError``)
    before the loaders checked it."""

    @pytest.mark.parametrize(
        "mutate, error, message", _MALFORMED,
        ids=[mutate.__name__.lstrip("_") for mutate, _, _ in _MALFORMED],
    )
    def test_is_an_error_naming_the_entry(self, mutate, error, message):
        problem, solution = copy.deepcopy(_PROBLEM), copy.deepcopy(_SOLUTION)
        mutate(problem, solution)
        with pytest.raises(error, match=message):
            solution_from_dict(solution, problem_from_dict(problem))

    def test_the_unmutated_documents_load(self):
        problem = problem_from_dict(copy.deepcopy(_PROBLEM))
        solution = solution_from_dict(copy.deepcopy(_SOLUTION), problem)
        assert problem_to_dict(problem) == _PROBLEM
        assert solution_to_dict(solution) == _SOLUTION


def _positions(node, at=()):
    """``(place, value)`` for every place in a JSON document a value sits,
    the root included."""
    yield at, node
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _positions(child, at + (key,))


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: the documents' own pieces: ids, task ids, blocks and qualities, so a
#: replacement can repeat or cross-reference an entry
_PIECES = st.sampled_from(
    [value for document in (_PROBLEM, _SOLUTION) for _, value in _positions(document)]
).map(copy.deepcopy)
_EDITS = st.tuples(
    st.sampled_from(
        [("problem", at) for at, _ in _positions(_PROBLEM)]
        + [("solution", at) for at, _ in _positions(_SOLUTION)]
    ),
    _JSON | _PIECES,
)


def _replaced(document, at, value):
    if not at:
        return value
    document = copy.deepcopy(document)
    node = document
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = value
    return document


def _canonical(problem_doc, solution_doc):
    """The documents as the loaders read them: blocks by id (only those a
    path names), paths and assignments in task order (the order within a
    task is kept)."""
    named = {bid for path in problem_doc["paths"] for bid in path["block_ids"]}
    problem_doc = dict(
        problem_doc,
        blocks={
            block["block_id"]: block
            for block in problem_doc["blocks"] if block["block_id"] in named
        },
        paths=sorted(problem_doc["paths"], key=lambda path: path["task_id"]),
    )
    assignments = sorted(solution_doc["assignments"], key=lambda a: a["task_id"])
    return problem_doc, dict(solution_doc, assignments=assignments)


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


@settings(max_examples=400, deadline=None)
@given(edit=_EDITS)
def test_a_field_replaced_by_any_json_loads_faithfully_or_is_a_named_error(edit):
    """Replace one field of a valid problem or solution document by any
    JSON value: the loaders return objects that write the documents back
    (up to :func:`_canonical`), or raise ``ValueError`` / ``KeyError`` —
    never ``TypeError``, ``AttributeError`` or a silently different
    object."""
    (which, at), value = edit
    problem_doc, solution_doc = _PROBLEM, _SOLUTION
    if which == "problem":
        problem_doc = _replaced(_PROBLEM, at, value)
    else:
        solution_doc = _replaced(_SOLUTION, at, value)
    try:
        problem = problem_from_dict(problem_doc)
        solution = solution_from_dict(solution_doc, problem)
    except (ValueError, KeyError):
        return
    written = _canonical(problem_to_dict(problem), solution_to_dict(solution))
    assert written == _canonical(problem_doc, solution_doc)
    task_ids = {task.task_id for task in problem.tasks}
    assert set(problem.catalog.paths_by_task) <= task_ids
    assert isinstance(solution.solver_name, str)
    assert _is_number(solution.solve_time_s) and _is_number(solution.tree_build_time_s)

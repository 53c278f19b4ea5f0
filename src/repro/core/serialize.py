"""JSON (de)serialization of DOT problems and solutions.

Lets experiments be persisted, diffed and replayed: a problem instance
(tasks, catalog, budgets, radio model) and a solver's solution both
round-trip through plain JSON-compatible dictionaries.

The format is versioned; loaders reject unknown versions rather than
guessing, and a malformed document (a non-object where an object
belongs, a missing key, a non-numeric or non-finite number, a repeated
block or assignment, a path for a task the problem does not have) is a
``ValueError`` naming the field — never a solve on garbage.  A solution
naming an unknown task or path is a ``KeyError`` naming the entry.
"""

from __future__ import annotations

import json
import re
import sys
from numbers import Real
from typing import Any

from repro.core.catalog import DEFAULT_BATCH_MARGINAL, Block, Catalog, Path
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.solution import Assignment, DOTSolution
from repro.core.task import QualityLevel, Task

__all__ = [
    "FORMAT_VERSION",
    "problem_to_dict",
    "problem_from_dict",
    "solution_to_dict",
    "solution_from_dict",
    "dump_problem",
    "load_problem",
    "dump_solution",
    "load_solution",
]

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# element codecs
# ---------------------------------------------------------------------------


_REQUIRED = object()
_FLOAT_MAX = sys.float_info.max  # NaN and infinities fail ``abs(x) <= _FLOAT_MAX`` too


def _field(
    data: Any, key: str, what: str, kind: type = float, default: Any = _REQUIRED
) -> Any:
    """``data[key]`` as a ``kind`` (``float``: any finite number; ``object``:
    anything, the key just has to be there, unless a ``default`` stands in
    for it)."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        if default is not _REQUIRED:
            return default
        raise ValueError(f"{what} is missing {key!r}")
    value = data[key]
    if kind is float:
        # numpy scalars pass; JSON true/false and ints past float range do not
        finite = isinstance(value, Real) and abs(value) <= _FLOAT_MAX
        ok = finite and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        expected = "a finite number" if kind is float else f"a JSON {kind.__name__}"
        raise ValueError(f"{what}[{key!r}] must be {expected}, got {value!r}")
    return value


def _quality_to_dict(quality: QualityLevel) -> dict[str, Any]:
    return {
        "name": quality.name,
        "bits_per_image": quality.bits_per_image,
        "accuracy_factor": quality.accuracy_factor,
    }


def _quality_from_dict(data: dict[str, Any], what: str) -> QualityLevel:
    return QualityLevel(
        name=_field(data, "name", what, str),
        bits_per_image=_field(data, "bits_per_image", what),
        accuracy_factor=_field(data, "accuracy_factor", what),
    )


def _task_to_dict(task: Task) -> dict[str, Any]:
    return {
        "task_id": task.task_id,
        "name": task.name,
        "method": task.method,
        "priority": task.priority,
        "request_rate": task.request_rate,
        "min_accuracy": task.min_accuracy,
        "max_latency_s": task.max_latency_s,
        "sinr_db": task.sinr_db,
        "qualities": [_quality_to_dict(q) for q in task.qualities],
    }


def _task_from_dict(data: dict[str, Any], what: str) -> Task:
    return Task(
        task_id=_field(data, "task_id", what),
        name=_field(data, "name", what, str),
        method=_field(data, "method", what, str),
        priority=_field(data, "priority", what),
        request_rate=_field(data, "request_rate", what),
        min_accuracy=_field(data, "min_accuracy", what),
        max_latency_s=_field(data, "max_latency_s", what),
        sinr_db=_field(data, "sinr_db", what, default=20.0),
        qualities=tuple(
            _quality_from_dict(q, f"{what}.qualities[{i}]")
            for i, q in enumerate(_field(data, "qualities", what, list))
        ),
    )


def _block_to_dict(block: Block) -> dict[str, Any]:
    return {
        "block_id": block.block_id,
        "dnn_id": block.dnn_id,
        "compute_time_s": block.compute_time_s,
        "memory_gb": block.memory_gb,
        "training_cost_s": block.training_cost_s,
        "batch_marginal": block.batch_marginal,
    }


def _block_from_dict(data: dict[str, Any], what: str) -> Block:
    # absent in dumps written before blocks carried their batch law
    marginal = _field(data, "batch_marginal", what, default=DEFAULT_BATCH_MARGINAL)
    if marginal < 0:
        raise ValueError(f"{what}['batch_marginal'] must be >= 0, got {marginal!r}")
    return Block(
        block_id=_field(data, "block_id", what, str),
        dnn_id=_field(data, "dnn_id", what, str),
        compute_time_s=_field(data, "compute_time_s", what),
        memory_gb=_field(data, "memory_gb", what),
        training_cost_s=_field(data, "training_cost_s", what),
        batch_marginal=marginal,
    )


def _path_to_dict(path: Path) -> dict[str, Any]:
    return {
        "path_id": path.path_id,
        "dnn_id": path.dnn_id,
        "task_id": path.task_id,
        "accuracy": path.accuracy,
        "quality": _quality_to_dict(path.quality),
        "block_ids": [b.block_id for b in path.blocks],
    }


def _path_from_dict(data: dict[str, Any], blocks: dict[str, Block], what: str) -> Path:
    return Path(
        path_id=_field(data, "path_id", what, str),
        dnn_id=_field(data, "dnn_id", what, str),
        task_id=_field(data, "task_id", what),
        accuracy=_field(data, "accuracy", what),
        quality=_quality_from_dict(_field(data, "quality", what, dict), f"{what}.quality"),
        blocks=tuple(
            _field(blocks, str(bid), f"blocks (as named by {what})", Block)
            for bid in _field(data, "block_ids", what, list)
        ),
    )


# ---------------------------------------------------------------------------
# problem
# ---------------------------------------------------------------------------


def problem_to_dict(problem: DOTProblem) -> dict[str, Any]:
    """Encode a problem as a JSON-compatible dictionary."""
    blocks = problem.catalog.all_blocks()
    return {
        "version": FORMAT_VERSION,
        "alpha": problem.alpha,
        "budgets": {
            "compute_time_s": problem.budgets.compute_time_s,
            "training_budget_s": problem.budgets.training_budget_s,
            "memory_gb": problem.budgets.memory_gb,
            "radio_blocks": problem.budgets.radio_blocks,
        },
        "radio": {
            "default_bits_per_rb": problem.radio.default_bits_per_rb,
            "per_task_bits_per_rb": {
                str(k): v for k, v in problem.radio.per_task_bits_per_rb.items()
            },
        },
        "tasks": [_task_to_dict(t) for t in problem.tasks],
        "blocks": [_block_to_dict(b) for b in blocks.values()],
        "paths": [
            _path_to_dict(p)
            for paths in problem.catalog.paths_by_task.values()
            for p in paths
        ],
    }


def _task_key(key: str) -> int:
    """A ``per_task_bits_per_rb`` key: a task id as ``str(int)`` writes it."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise ValueError(f"radio.per_task_bits_per_rb key {key!r} is not a task id")
    return int(key)


def _check_version(data: dict[str, Any]) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"document must be a JSON object, got {type(data).__name__}")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported serialization version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )


def problem_from_dict(data: dict[str, Any]) -> DOTProblem:
    """Decode a problem previously encoded by :func:`problem_to_dict`."""
    _check_version(data)
    blocks: dict[str, Block] = {}
    for i, entry in enumerate(_field(data, "blocks", "problem", list)):
        block = _block_from_dict(entry, f"blocks[{i}]")
        if block.block_id in blocks:
            raise ValueError(f"blocks[{i}] repeats block_id {block.block_id!r}")
        blocks[block.block_id] = block
    tasks = tuple(
        _task_from_dict(t, f"tasks[{i}]")
        for i, t in enumerate(_field(data, "tasks", "problem", list))
    )
    task_ids = {task.task_id for task in tasks}
    catalog = Catalog()
    for i, entry in enumerate(_field(data, "paths", "problem", list)):
        path = _path_from_dict(entry, blocks, f"paths[{i}]")
        if path.task_id not in task_ids:
            raise ValueError(f"paths[{i}] names task {path.task_id!r}, not in tasks")
        catalog.add_path(path)
    budgets = _field(data, "budgets", "problem", dict)
    radio = _field(data, "radio", "problem", dict)
    per_task = _field(radio, "per_task_bits_per_rb", "radio", dict)
    return DOTProblem(
        tasks=tasks,
        catalog=catalog,
        budgets=Budgets(
            compute_time_s=_field(budgets, "compute_time_s", "budgets"),
            training_budget_s=_field(budgets, "training_budget_s", "budgets"),
            memory_gb=_field(budgets, "memory_gb", "budgets"),
            radio_blocks=_field(budgets, "radio_blocks", "budgets"),
        ),
        radio=RadioModel(
            default_bits_per_rb=_field(radio, "default_bits_per_rb", "radio"),
            per_task_bits_per_rb={
                _task_key(k): _field(per_task, k, "radio.per_task_bits_per_rb")
                for k in per_task
            },
        ),
        alpha=_field(data, "alpha", "problem"),
    )


# ---------------------------------------------------------------------------
# solution
# ---------------------------------------------------------------------------


def solution_to_dict(solution: DOTSolution) -> dict[str, Any]:
    """Encode a solution; paths are referenced by id within the problem."""
    assignments = []
    for task_id, assignment in sorted(solution.assignments.items()):
        assignments.append(
            {
                "task_id": task_id,
                "path_id": assignment.path.path_id if assignment.path else None,
                "quality": (
                    _quality_to_dict(assignment.path.quality) if assignment.path else None
                ),
                "admission_ratio": assignment.admission_ratio,
                "radio_blocks": assignment.radio_blocks,
            }
        )
    return {
        "version": FORMAT_VERSION,
        "solver_name": solution.solver_name,
        "solve_time_s": solution.solve_time_s,
        "tree_build_time_s": solution.tree_build_time_s,
        "assignments": assignments,
    }


def solution_from_dict(data: dict[str, Any], problem: DOTProblem) -> DOTSolution:
    """Decode a solution against its problem (for path resolution).

    Quality-expanded paths (``<path_id>@<quality>``) are reconstructed
    from the base path plus the recorded quality level.
    """
    from dataclasses import replace

    _check_version(data)
    paths_by_id: dict[str, Path] = {
        p.path_id: p
        for paths in problem.catalog.paths_by_task.values()
        for p in paths
    }
    solution = DOTSolution(
        solver_name=_field(data, "solver_name", "solution", str, default=""),
        solve_time_s=_field(data, "solve_time_s", "solution", default=0.0),
        # absent in pre-scaling dumps, where solve_time_s was end-to-end
        tree_build_time_s=_field(data, "tree_build_time_s", "solution", default=0.0),
    )
    for i, entry in enumerate(_field(data, "assignments", "solution", list)):
        what = f"assignments[{i}]"
        task_id = _field(entry, "task_id", what)
        try:
            task = problem.task(task_id)
        except KeyError:
            raise KeyError(f"{what} names unknown task {task_id!r}") from None
        if task.task_id in solution.assignments:
            raise ValueError(f"{what} repeats task {task_id!r}")
        path_id = _field(entry, "path_id", what, object)
        quality = _field(entry, "quality", what, object, default=None)
        if (path_id is None) != (quality is None):
            raise ValueError(f"{what} must give both a path_id and a quality, or neither")
        path: Path | None = None
        if path_id is not None:
            base_id = str(path_id).split("@")[0]
            if base_id not in paths_by_id:
                raise KeyError(f"{what} references unknown path {path_id!r}")
            path = paths_by_id[base_id]
            quality = _quality_from_dict(quality, f"{what}.quality")
            if quality != path.quality:
                path = replace(path, path_id=f"{base_id}@{quality.name}", quality=quality)
            if path.path_id != path_id:
                raise ValueError(f"{what} path_id {path_id!r} does not fit its quality")
        solution.assignments[task.task_id] = Assignment(
            task=task,
            path=path,
            admission_ratio=_field(entry, "admission_ratio", what),
            radio_blocks=_field(entry, "radio_blocks", what),
        )
    return solution


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------


def dump_problem(problem: DOTProblem, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(problem_to_dict(problem), handle, indent=2)


def load_problem(path: str) -> DOTProblem:
    with open(path) as handle:
        return problem_from_dict(json.load(handle))


def dump_solution(solution: DOTSolution, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(solution_to_dict(solution), handle, indent=2)


def load_solution(path: str, problem: DOTProblem) -> DOTSolution:
    with open(path) as handle:
        return solution_from_dict(json.load(handle), problem)

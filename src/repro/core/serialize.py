"""JSON (de)serialization of DOT problems and solutions.

Lets experiments be persisted, diffed and replayed: a problem instance
(tasks, catalog, budgets, radio model) and a solver's solution both
round-trip through plain JSON-compatible dictionaries.

The format is versioned; loaders reject unknown versions rather than
guessing, and a malformed document (a non-object where an object
belongs, a missing key, a non-numeric or non-finite number) is a
``ValueError`` naming the field — never a solve on garbage.
"""

from __future__ import annotations

import json
import math
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


def _field(data: Any, key: str, what: str, kind: type = float) -> Any:
    """``data[key]`` as a ``kind`` (``float``: any finite number; ``object``:
    anything, the key just has to be there)."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"{what} is missing {key!r}")
    value = data[key]
    if kind is float:  # numpy scalars pass; JSON true/false do not
        ok = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
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
        sinr_db=_field(data, "sinr_db", what) if "sinr_db" in data else 20.0,
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
    marginal = (
        _field(data, "batch_marginal", what)
        if "batch_marginal" in data
        else DEFAULT_BATCH_MARGINAL
    )
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
    blocks = {}
    for i, entry in enumerate(_field(data, "blocks", "problem", list)):
        block = _block_from_dict(entry, f"blocks[{i}]")
        blocks[block.block_id] = block
    catalog = Catalog()
    for i, entry in enumerate(_field(data, "paths", "problem", list)):
        catalog.add_path(_path_from_dict(entry, blocks, f"paths[{i}]"))
    budgets = _field(data, "budgets", "problem", dict)
    radio = _field(data, "radio", "problem", dict)
    per_task = _field(radio, "per_task_bits_per_rb", "radio", dict)
    return DOTProblem(
        tasks=tuple(
            _task_from_dict(t, f"tasks[{i}]")
            for i, t in enumerate(_field(data, "tasks", "problem", list))
        ),
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
                int(k): _field(per_task, k, "radio.per_task_bits_per_rb")
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
        solver_name=data.get("solver_name", ""),
        solve_time_s=data.get("solve_time_s", 0.0),
        # absent in pre-scaling dumps, where solve_time_s was end-to-end
        tree_build_time_s=data.get("tree_build_time_s", 0.0),
    )
    for i, entry in enumerate(_field(data, "assignments", "solution", list)):
        what = f"assignments[{i}]"
        task = problem.task(_field(entry, "task_id", what))
        path_id = _field(entry, "path_id", what, object)
        path: Path | None = None
        if path_id is not None:
            base_id = str(path_id).split("@")[0]
            if base_id not in paths_by_id:
                raise KeyError(f"solution references unknown path {path_id!r}")
            path = paths_by_id[base_id]
            if _field(entry, "quality", what, object) is not None:
                quality = _quality_from_dict(entry["quality"], f"{what}.quality")
                if quality != path.quality:
                    path = replace(path, path_id=path_id, quality=quality)
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

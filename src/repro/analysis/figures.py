"""Data assembly for every figure of the paper's evaluation.

Each ``figN_*`` function runs the relevant experiment and returns a
dictionary of series shaped like the published figure, so benchmarks
can print the same rows the paper plots and tests can assert the
qualitative relationships (who wins, by roughly what factor, where the
crossovers fall).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from repro.baselines.semoran import SemORANSolver
from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import objective_breakdown, objective_value
from repro.core.optimal import OptimalSolver
from repro.core.solution import DOTSolution
from repro.dnn.configs import TABLE_I_CONFIGS
from repro.dnn.profiler import profile_model
from repro.dnn.pruning import prune_resnet
from repro.dnn.resnet import build_resnet18
from repro.dnn.training import (
    LearningCurveModel,
    TrainingMemoryModel,
    pruned_accuracy_drop,
)
from repro.serving import fig11_runtime, latency_series
from repro.workloads.largescale import RequestRate, large_scale_problem
from repro.workloads.smallscale import small_scale_problem

__all__ = [
    "fig2_training_curves",
    "fig3_pruning_effects",
    "fig6_runtime_comparison",
    "fig7_cost_and_memory",
    "fig8_cost_breakdown",
    "fig9_admission_ratios",
    "fig10_largescale_comparison",
    "fig11_emulation_latency",
    "headline_comparison",
    "SolverPair",
]

BASE_CONFIG_NAMES = ("CONFIG A", "CONFIG B", "CONFIG C", "CONFIG D", "CONFIG E")


# ---------------------------------------------------------------------------
# Fig. 2 — training configurations
# ---------------------------------------------------------------------------


def fig2_training_curves(
    epochs: int = 250,
    num_classes: int = 60,
    input_size: int = 32,
    width: int = 64,
    batch_size: int = 256,
    seed: int = 0,
) -> dict[str, dict[str, object]]:
    """Accuracy-vs-epoch curve and peak training memory per CONFIG A..E."""
    model = build_resnet18(num_classes=num_classes, input_size=input_size, width=width)
    memory_model = TrainingMemoryModel(batch_size=batch_size)
    out: dict[str, dict[str, object]] = {}
    for name in BASE_CONFIG_NAMES:
        config = TABLE_I_CONFIGS[name]
        curve_model = LearningCurveModel.for_config(config, num_classes=num_classes + 1)
        curve = curve_model.curve(epochs, seed=seed)
        out[name] = {
            "accuracy_curve": curve,
            "epochs_to_80pct": curve_model.epochs_to_reach(0.80),
            "peak_memory_mib": memory_model.peak_mib(model, config),
        }
    return out


# ---------------------------------------------------------------------------
# Fig. 3 — pruning effects
# ---------------------------------------------------------------------------


def fig3_pruning_effects(
    fine_tune_epochs: int = 100,
    num_classes: int = 60,
    input_size: int = 32,
    width: int = 64,
    repeats: int = 5,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Inference compute time and class accuracy, with/without pruning.

    The compute time is the *measured* wall clock of a dummy-tensor
    forward pass through the configuration's compiled plans (the paper's
    procedure); the accuracy comes from the 100-epoch fine-tuning point
    of the learning-curve model minus the pruning drop.
    """
    out: dict[str, dict[str, float]] = {}
    for base_name in BASE_CONFIG_NAMES:
        for config in (TABLE_I_CONFIGS[base_name], TABLE_I_CONFIGS[f"{base_name}-pruned"]):
            model = build_resnet18(
                num_classes=num_classes, input_size=input_size, width=width, seed=seed
            )
            # the accuracy drop depends on which fraction of the *full*
            # model's parameters get pruned, so compute it pre-pruning
            drop = pruned_accuracy_drop(config, model) if config.pruned else 0.0
            if config.pruned:
                stages = [s for s in config.prunable_blocks]
                prune_resnet(model, set(stages), config.prune_ratio)
            profile = profile_model(model, repeats=repeats)
            curve = LearningCurveModel.for_config(config, num_classes=num_classes + 1)
            accuracy = max(0.0, curve.accuracy_at(fine_tune_epochs) - drop)
            out[config.name] = {
                "inference_time_ms": profile.total_compute_time_s * 1e3,
                "class_accuracy": accuracy,
                "params": float(profile.total_params),
                "flops": float(profile.total_flops),
            }
    return out


# ---------------------------------------------------------------------------
# Figs. 6-8 — small-scale scenario vs the optimum
# ---------------------------------------------------------------------------


@dataclass
class SolverPair:
    """Solutions of both strategies on the same problem instance."""

    problem: object
    heuristic: DOTSolution
    optimal: DOTSolution


@cache
def _solve_small_scale(num_tasks: int, seed: int = 0) -> SolverPair:
    """One small-scale instance solved once by each strategy.

    Cached: Figs. 6, 7 and 8 read the same pass, so a process that
    renders all three runs the exhaustive optimum once per ``T``.
    """
    problem = small_scale_problem(num_tasks, seed=seed)
    heuristic = OffloaDNNSolver().solve(problem)
    optimal = OptimalSolver().solve(problem)
    return SolverPair(problem=problem, heuristic=heuristic, optimal=optimal)


def fig6_runtime_comparison(max_tasks: int = 5, seed: int = 0) -> dict[str, list[float]]:
    """Solver runtime vs number of tasks (log-scale in the paper).

    Fig. 6 plots end-to-end solver runtime, so the tree build belongs in
    the number (each solver builds its own tree).
    """
    pairs = [_solve_small_scale(t, seed) for t in range(1, max_tasks + 1)]
    return {
        "num_tasks": list(range(1, max_tasks + 1)),
        "offloadnn_s": [pair.heuristic.total_time_s for pair in pairs],
        "optimum_s": [pair.optimal.total_time_s for pair in pairs],
    }


def fig7_cost_and_memory(max_tasks: int = 5, seed: int = 0) -> dict[str, list[float]]:
    """Normalized DOT cost and normalized memory, heuristic vs optimum."""
    pairs = [_solve_small_scale(t, seed) for t in range(1, max_tasks + 1)]
    costs = [
        (objective_value(p.problem, p.heuristic), objective_value(p.problem, p.optimal))
        for p in pairs
    ]
    max_cost = max(max(h, o) for h, o in costs) or 1.0
    memory_budget = pairs[0].problem.budgets.memory_gb
    return {
        "num_tasks": list(range(1, max_tasks + 1)),
        "offloadnn_cost": [h / max_cost for h, _ in costs],
        "optimum_cost": [o / max_cost for _, o in costs],
        "offloadnn_memory": [p.heuristic.total_memory_gb / memory_budget for p in pairs],
        "optimum_memory": [p.optimal.total_memory_gb / memory_budget for p in pairs],
    }


def fig8_cost_breakdown(max_tasks: int = 5, seed: int = 0) -> dict[str, list[float]]:
    """The four Fig. 8 panels for T = 1..max_tasks."""
    rows: dict[str, list[float]] = {key: [] for key in (
        "num_tasks",
        "offloadnn_weighted_admission",
        "optimum_weighted_admission",
        "offloadnn_rb_fraction",
        "optimum_rb_fraction",
        "offloadnn_training",
        "optimum_training",
        "offloadnn_inference",
        "optimum_inference",
    )}
    for num_tasks in range(1, max_tasks + 1):
        pair = _solve_small_scale(num_tasks, seed)
        budgets = pair.problem.budgets
        rows["num_tasks"].append(num_tasks)
        for label, sol in (("offloadnn", pair.heuristic), ("optimum", pair.optimal)):
            rows[f"{label}_weighted_admission"].append(sol.weighted_admission_ratio)
            rows[f"{label}_rb_fraction"].append(
                sol.total_radio_blocks / budgets.radio_blocks
            )
            rows[f"{label}_training"].append(
                sol.total_training_cost_s / budgets.training_budget_s
            )
            rows[f"{label}_inference"].append(
                sol.total_inference_compute_s / budgets.compute_time_s
            )
    return rows


# ---------------------------------------------------------------------------
# Figs. 9-10 — large-scale scenario vs SEM-O-RAN
# ---------------------------------------------------------------------------


def fig9_admission_ratios(seed: int = 0) -> dict[str, dict[str, list[float]]]:
    """Per-task admission ratio for both schemes at the three rates."""
    out: dict[str, dict[str, list[float]]] = {}
    for rate in RequestRate:
        problem = large_scale_problem(rate, seed=seed)
        heuristic = OffloaDNNSolver().solve(problem)
        semoran = SemORANSolver().solve(problem)
        task_ids = sorted(t.task_id for t in problem.tasks)
        out[rate.label] = {
            "task_ids": [float(t) for t in task_ids],
            "offloadnn": [heuristic.assignment(t).admission_ratio for t in task_ids],
            "semoran": [semoran.assignment(t).admission_ratio for t in task_ids],
        }
    return out


def fig10_largescale_comparison(seed: int = 0) -> dict[str, dict[str, float]]:
    """The four Fig. 10 panels plus the in-text DOT/training costs."""
    out: dict[str, dict[str, float]] = {}
    for rate in RequestRate:
        problem = large_scale_problem(rate, seed=seed)
        heuristic = OffloaDNNSolver().solve(problem)
        semoran = SemORANSolver().solve(problem)
        budgets = problem.budgets
        breakdown = objective_breakdown(problem, heuristic)
        out[rate.label] = {
            "offloadnn_weighted_admission": heuristic.weighted_admission_ratio,
            "semoran_weighted_admission": semoran.weighted_admission_ratio,
            "offloadnn_rb_fraction": heuristic.total_radio_blocks / budgets.radio_blocks,
            "semoran_rb_fraction": semoran.total_radio_blocks / budgets.radio_blocks,
            "offloadnn_memory_fraction": heuristic.total_memory_gb / budgets.memory_gb,
            "semoran_memory_fraction": semoran.total_memory_gb / budgets.memory_gb,
            "offloadnn_inference_fraction": heuristic.total_inference_compute_s
            / budgets.compute_time_s,
            "semoran_inference_fraction": semoran.total_inference_compute_s
            / budgets.compute_time_s,
            "offloadnn_admitted": float(heuristic.admitted_task_count),
            "semoran_admitted": float(semoran.admitted_task_count),
            "offloadnn_dot_cost": breakdown.total,
            "offloadnn_training_fraction": heuristic.total_training_cost_s
            / budgets.training_budget_s,
        }
    return out


def headline_comparison(seed: int = 0) -> dict[str, float]:
    """The paper's headline averages vs SEM-O-RAN across the three rates.

    Reported: % more admitted tasks, % memory saved, % inference compute
    saved, % radio resources saved.
    """
    data = fig10_largescale_comparison(seed=seed)
    off_admitted = sum(d["offloadnn_admitted"] for d in data.values())
    sem_admitted = sum(d["semoran_admitted"] for d in data.values())
    mem_savings = [
        1.0 - d["offloadnn_memory_fraction"] / d["semoran_memory_fraction"]
        for d in data.values()
        if d["semoran_memory_fraction"] > 0
    ]
    compute_savings = [
        1.0 - d["offloadnn_inference_fraction"] / d["semoran_inference_fraction"]
        for d in data.values()
        if d["semoran_inference_fraction"] > 0
    ]
    radio_savings = [
        1.0 - d["offloadnn_rb_fraction"] / d["semoran_rb_fraction"]
        for d in data.values()
        if d["semoran_rb_fraction"] > 0
    ]
    return {
        "admitted_tasks_gain_pct": 100.0 * (off_admitted / sem_admitted - 1.0),
        "memory_saving_pct": 100.0 * float(np.mean(mem_savings)),
        "inference_compute_saving_pct": 100.0 * float(np.mean(compute_savings)),
        "radio_saving_pct": 100.0 * float(np.mean(radio_savings)),
    }


# ---------------------------------------------------------------------------
# Fig. 11 — emulation
# ---------------------------------------------------------------------------


def fig11_emulation_latency(
    num_tasks: int = 5, duration_s: float = 20.0, seed: int = 0
) -> dict[str, object]:
    """Per-task smoothed end-to-end latency series from the Fig. 11 serving run."""
    runtime = fig11_runtime(num_tasks, duration_s, seed)
    runtime.run()
    series: dict[int, dict[str, object]] = {}
    for task_id, (times, latencies) in latency_series(runtime.last_requests).items():
        series[task_id] = {
            "times_s": times,
            "latency_s": latencies,
            "limit_s": runtime.problem.task(task_id).max_latency_s,
        }
    return {
        "series": series,
        "within_limits": all(
            bool((entry["latency_s"] <= entry["limit_s"]).all())
            for entry in series.values()
        ),
        "events": runtime.simulator.events_processed,
    }

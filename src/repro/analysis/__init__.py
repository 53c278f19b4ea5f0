"""Evaluation analysis: figure/table data assembly and reporting.

One data function per paper artifact (Fig. 2 .. Fig. 11, Table I and
the headline comparison) returning plain data structures, and one
generator per artifact (:data:`repro.analysis.artifacts.ARTIFACTS`)
returning that data with the exact text its record under
``benchmarks/results/`` holds.
"""

from repro.analysis.artifacts import ARTIFACTS, Artifact
from repro.analysis.figures import (
    fig2_training_curves,
    fig3_pruning_effects,
    fig6_runtime_comparison,
    fig7_cost_and_memory,
    fig8_cost_breakdown,
    fig9_admission_ratios,
    fig10_largescale_comparison,
    fig11_emulation_latency,
    headline_comparison,
)
from repro.analysis.report import format_table
from repro.analysis.plots import sparkline
from repro.analysis.sweep import (
    sweep_memory_budget,
    sweep_radio_budget,
    sweep_request_rate,
)

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "fig2_training_curves",
    "fig3_pruning_effects",
    "fig6_runtime_comparison",
    "fig7_cost_and_memory",
    "fig8_cost_breakdown",
    "fig9_admission_ratios",
    "fig10_largescale_comparison",
    "fig11_emulation_latency",
    "headline_comparison",
    "format_table",
    "sparkline",
    "sweep_memory_budget",
    "sweep_radio_budget",
    "sweep_request_rate",
]

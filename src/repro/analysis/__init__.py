"""Evaluation analysis: figure/table data assembly and reporting.

One function per paper artifact (Fig. 2 .. Fig. 11, Table I/II/IV and
the headline comparison), each returning plain data structures that the
benchmark harness prints and EXPERIMENTS.md records.
"""

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

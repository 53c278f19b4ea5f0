"""One generator per paper artifact.

Each generator runs its artifact's experiment at the settings the
committed record was taken with and returns an :class:`Artifact`: the
data, and the exact text ``benchmarks/results/<name>.txt`` holds.  The
three consumers call the same generator: ``python -m repro reproduce
<key>`` prints the text, each ``benchmarks/bench_*.py`` writes it and
asserts the paper's relationships on the data, and ``repro sweep``
prints one :func:`sweep_section` of :func:`sensitivity`.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

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
from repro.analysis.report import format_series, format_table
from repro.analysis.sweep import SweepPoint, sweep
from repro.dnn.repository import profile_table_i

__all__ = [
    "Artifact",
    "ARTIFACTS",
    "PAPER_HEADLINE",
    "SWEEPS",
    "sweep_section",
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "headline",
    "table1",
    "sensitivity",
]

RATES = ("low", "medium", "high")

#: the abstract's numbers vs SEM-O-RAN (averaged over the three rates)
PAPER_HEADLINE = {
    "admitted_tasks_gain_pct": 26.9,
    "memory_saving_pct": 82.5,
    "inference_compute_saving_pct": 77.4,
    "radio_saving_pct": 4.4,
}

#: sweep knob -> (axis label, the values the sensitivity record sweeps)
SWEEPS = {
    "radio": ("RB pool", [20, 40, 60, 80, 100, 140]),
    "memory": ("memory GB", [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]),
    "rate": ("req/s per task", [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]),
}


class Artifact(NamedTuple):
    """A regenerated paper artifact."""

    #: file stem of its record under ``benchmarks/results/``
    name: str
    data: Any
    text: str


def _rows(data: dict[str, list]) -> list[tuple]:
    """Table rows read across every series of ``data``, in key order."""
    return list(zip(*data.values()))


def fig2() -> Artifact:
    """Fig. 2: accuracy progression and peak training memory per config."""
    data = fig2_training_curves()
    sample_epochs = [1, 50, 150, 250]
    lines = [f"Fig. 2 (left): testing accuracy [%] at epochs {sample_epochs}"]
    for name, entry in data.items():
        picks = [100 * entry["accuracy_curve"][e - 1] for e in sample_epochs]
        lines.append(format_series(f"  {name}", picks, precision=1))
        lines.append(f"    epochs to 80%: {entry['epochs_to_80pct']}")
    memory = [[name, entry["peak_memory_mib"]] for name, entry in data.items()]
    ratio = data["CONFIG A"]["peak_memory_mib"] / data["CONFIG B"]["peak_memory_mib"]
    lines += [
        "",
        "Fig. 2 (right): peak GPU memory occupancy [MiB]",
        format_table(["config", "peak MiB"], memory, precision=0),
        f"CONFIG A / CONFIG B memory ratio: {ratio:.2f}x (paper: ~1.8x)",
    ]
    return Artifact("fig2_training", data, "\n".join(lines))


def fig3() -> Artifact:
    """Fig. 3: inference time and class accuracy with and without pruning."""
    data = fig3_pruning_effects(repeats=3)
    rows = []
    for letter in "ABCDE":
        base, pruned = data[f"CONFIG {letter}"], data[f"CONFIG {letter}-pruned"]
        rows.append([
            f"CONFIG {letter}", base["inference_time_ms"], pruned["inference_time_ms"],
            100 * base["class_accuracy"], 100 * pruned["class_accuracy"],
        ])
    headers = [
        "config", "time w/o prune [ms]", "time pruned [ms]", "acc w/o prune [%]",
        "acc pruned [%]",
    ]
    return Artifact(
        "fig3_pruning", data,
        "Fig. 3: effects of 80% structured pruning (100-epoch fine-tune)\n"
        + format_table(headers, rows, precision=2),
    )


def fig6() -> Artifact:
    """Fig. 6: solver runtime, OffloaDNN vs the optimum (host clock)."""
    data = fig6_runtime_comparison()
    rows = [[t, h, o, o / h] for t, h, o in _rows(data)]
    return Artifact(
        "fig6_runtime", data,
        "Fig. 6: average runtime [s] vs number of inference tasks\n"
        + format_table(["T", "OffloaDNN [s]", "Optimum [s]", "slowdown"], rows, precision=4),
    )


def fig7() -> Artifact:
    """Fig. 7: normalized DOT cost and memory, OffloaDNN vs the optimum."""
    data = fig7_cost_and_memory()
    return Artifact(
        "fig7_cost_memory", data,
        "Fig. 7: normalized DOT cost (left) and normalized memory (right)\n"
        + format_table(
            ["T", "Off. cost", "Opt. cost", "Off. mem", "Opt. mem"], _rows(data)
        ),
    )


def fig8() -> Artifact:
    """Fig. 8: the four cost-breakdown panels vs the optimum."""
    data = fig8_cost_breakdown()
    headers = ["T"] + [
        f"{who} {panel}" for panel in ("w.adm", "RB", "train", "inf") for who in ("Off.", "Opt.")
    ]
    return Artifact(
        "fig8_breakdown", data,
        "Fig. 8: cost breakdown, OffloaDNN vs optimum (T = 1..5)\n"
        + format_table(headers, _rows(data)),
    )


def fig9() -> Artifact:
    """Fig. 9: per-task admission ratio vs SEM-O-RAN at the three rates."""
    data = fig9_admission_ratios()
    lines = ["Fig. 9: admission ratio per task (ids 1..20)"]
    for rate in RATES:
        lines += [
            f"[{rate} request rate]",
            format_series("  OffloaDNN", data[rate]["offloadnn"], precision=2),
            format_series("  SEM-O-RAN", data[rate]["semoran"], precision=2),
        ]
    return Artifact("fig9_admission", data, "\n".join(lines))


def fig10() -> Artifact:
    """Fig. 10: the four resource panels vs SEM-O-RAN, plus the in-text series."""
    data = fig10_largescale_comparison()
    panels = ("weighted_admission", "rb_fraction", "memory_fraction", "inference_fraction")
    keys = [f"{who}_{panel}" for panel in panels for who in ("offloadnn", "semoran")]
    headers = ["rate"] + [
        f"{who} {panel}" for panel in ("w.adm", "RB", "mem", "inf") for who in ("Off.", "SEM")
    ]
    rows = [[rate] + [data[rate][key] for key in keys] for rate in RATES]

    def series(key: str) -> str:
        return str([round(data[rate][key], 2) for rate in RATES])

    lines = [
        "Fig. 10: large-scale comparison vs SEM-O-RAN",
        format_table(headers, rows),
        "",
        f"In-text series (OffloaDNN): DOT cost {series('offloadnn_dot_cost')}, "
        f"training compute {series('offloadnn_training_fraction')}"
        "  (paper: [0.35, 0.44, 0.74] and [0.81, 0.81, 0.67])",
    ]
    return Artifact("fig10_largescale", data, "\n".join(lines))


def fig11() -> Artifact:
    """Fig. 11: the emulated run's smoothed end-to-end latency per task."""
    data = fig11_emulation_latency()
    rows = []
    for task_id, entry in sorted(data["series"].items()):
        latency = np.asarray(entry["latency_s"], dtype=float)
        rows.append([
            task_id, 1e3 * float(latency.mean()), 1e3 * float(latency.max()),
            1e3 * entry["limit_s"], len(latency),
        ])
    return Artifact(
        "fig11_emulation", data,
        "Fig. 11: emulated end-to-end latency (moving average, window 3)\n"
        + format_table(
            ["task", "mean [ms]", "max [ms]", "limit [ms]", "samples"], rows, precision=1
        )
        + f"\nall tasks within latency targets: {data['within_limits']}"
        + f"\nDES events processed: {data['events']}",
    )


def headline() -> Artifact:
    """The abstract's averages vs SEM-O-RAN, paper beside measured."""
    data = headline_comparison()
    rows = [[metric, paper, data[metric]] for metric, paper in PAPER_HEADLINE.items()]
    return Artifact(
        "headline", data,
        "Headline: OffloaDNN vs SEM-O-RAN (average over low/medium/high)\n"
        + format_table(["metric", "paper", "measured"], rows, precision=1),
    )


def table1() -> Artifact:
    """Table I: the profiled block configurations (host clock)."""
    data = profile_table_i(width=32, input_size=32, repeats=2)
    rows = []
    for name in sorted(data):
        profiled = data[name]
        config = profiled.config
        rows.append([
            name,
            ",".join(config.shared_stages) or "-",
            f"{config.prune_ratio:.0%}" if config.pruned else "-",
            profiled.total_compute_time_s * 1e3,
            profiled.total_memory_gb * 1e3,
            profiled.accuracy,
        ])
    headers = ["config", "shared stages", "prune", "inference ms", "memory MB", "accuracy"]
    return Artifact(
        "table1_configs", data,
        "Table I: DNN block configurations (ResNet-18 substrate)\n"
        + format_table(headers, rows),
    )


def sweep_section(knob: str, points: list[SweepPoint]) -> str:
    """One knob's section of the sensitivity record."""
    label = SWEEPS[knob][0]
    rows = [
        [p.value, p.weighted_admission, p.admitted_tasks, p.memory_gb, p.radio_blocks]
        for p in points
    ]
    return f"sweep over {label}:\n" + format_table(
        [label, "w. admission", "admitted", "memory GB", "RBs"], rows, precision=2
    )


def sensitivity() -> Artifact:
    """Where each resource binds on the large-scale scenario (beyond Table IV)."""
    data = {knob: sweep(knob, values) for knob, (_, values) in SWEEPS.items()}
    sections = [sweep_section(knob, points) for knob, points in data.items()]
    return Artifact(
        "sensitivity", data,
        "Sensitivity sweeps (large scale, OffloaDNN)\n\n" + "\n\n".join(sections),
    )


#: ``repro reproduce`` key -> generator
ARTIFACTS = {
    "fig2": fig2,
    "fig3": fig3,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "headline": headline,
    "table1": table1,
    "sensitivity": sensitivity,
}

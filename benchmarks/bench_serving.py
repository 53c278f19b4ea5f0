"""Serving data plane — throughput, scaling to 10⁶ requests, cluster parity.

Beyond the paper: the emulation of Fig. 11 validates latency at the
solved operating point; this bench drives the serving runtime across
offered loads and, since the wave engine landed, across *scale*:

1. **Load curve** (legacy table): 0.5x–3x the solved ``λ`` — throughput
   saturates at the granted rate while the admission gate sheds excess.
2. **Prefix cache** (legacy table): identical runs with shared-block
   fusion on and off.
3. **Scale curve**: 10³ → 10⁶ offered requests (requests/s of wall
   time, DES events/s, worst task p95).
4. **Cluster wave point**: 10⁴ offered requests streamed through a
   one-node ``ClusterExecutor``, metrics bit-equal to the same point of
   the scale curve (the local executor).

Parity with the one-event-per-request reference is tier-1's job
(``tests/test_serving_engine.py`` against ``tests/oracles.py``), not
this bench's.  Full mode writes ``BENCH_serving.json`` at the repo root
(committed); ``--quick`` gates the 10⁴ point under a wall-clock ceiling
for CI, writes ``benchmarks/results/BENCH_serving_quick.json``
(untracked), and exits nonzero on a parity or budget failure.
"""

from __future__ import annotations

import argparse
import pathlib
import time

from benchmarks._report import write_json
from repro.analysis.report import format_table
from repro.core.heuristic import OffloaDNNSolver
from repro.serving import DropReason, ServingRuntime
from repro.serving.runtime import ServingConfig
from repro.workloads.smallscale import serving_small_scale_problem

REPO_ROOT = pathlib.Path(__file__).parent.parent
SEED = 3
DURATION_S = 10.0
LOADS = (0.5, 1.0, 1.5, 2.0, 3.0)
#: offered-request targets of the scale curve (reached via load_factor
#: on the small-scale scenario's 25 req/s of solved offered rate)
FULL_TARGETS = (1_000, 10_000, 100_000, 1_000_000)
QUICK_TARGETS = (10_000,)
#: wall ceiling for the --quick 10⁴ gate (generous for a 1-core CI box)
QUICK_WALL_CEILING_S = 30.0
#: scale-curve point the one-node cluster run is compared against
CLUSTER_TARGET = 10_000


def _runtime(**overrides) -> ServingRuntime:
    problem = serving_small_scale_problem(5, seed=0)
    return ServingRuntime.from_problem(
        problem,
        ServingConfig(**overrides),
        solver=OffloaDNNSolver(slice_margin_rbs=2),
    )


def _base_rate() -> float:
    runtime = _runtime()
    return sum(
        task.request_rate
        for task in runtime.problem.tasks
        if runtime.tickets[task.task_id].admitted
    )


def _metrics_key(metrics) -> tuple:
    return (
        metrics.duration_s,
        metrics.total_compute_s,
        metrics.windows,
        tuple(
            (
                tid,
                t.offered,
                t.admitted,
                t.completed,
                t.deadline_misses,
                tuple(sorted((r.value, c) for r, c in t.drops.items())),
                (t.latency.mean_s, t.latency.p50_s, t.latency.p95_s,
                 t.latency.p99_s, t.latency.max_s),
            )
            for tid, t in sorted(metrics.tasks.items())
        ),
    )


def load_curve() -> list[dict]:
    rows = []
    for load in LOADS:
        runtime = _runtime(duration_s=DURATION_S, load_factor=load, seed=0)
        metrics = runtime.run()
        gated = sum(t.drops[DropReason.ADMISSION] for t in metrics.tasks.values())
        p95 = max(
            t.latency.p95_s for t in metrics.tasks.values() if t.completed > 0
        )
        rows.append(
            {
                "load": load,
                "offered": metrics.offered,
                "completed": metrics.completed,
                "throughput_rps": metrics.throughput_rps,
                "worst_p95_ms": 1e3 * p95,
                "miss_rate": metrics.deadline_miss_rate,
                "gated": gated,
            }
        )
    return rows


def prefix_cache() -> list[dict]:
    rows = []
    for enabled in (True, False):
        runtime = _runtime(
            duration_s=DURATION_S, load_factor=2.0, seed=0, prefix_cache=enabled
        )
        metrics = runtime.run()
        rows.append(
            {
                "cache": "on" if enabled else "off",
                "completed": metrics.completed,
                "compute_s": metrics.total_compute_s,
                "saved_s": metrics.compute_saved_s,
                "merges": metrics.prefix_merges,
            }
        )
    return rows


def _scale_run(target: int, cluster_nodes: int | None = None) -> dict:
    load = target / (_base_rate() * DURATION_S)
    runtime = _runtime(
        duration_s=DURATION_S, load_factor=load, poisson=True, seed=SEED
    )
    if cluster_nodes is not None:
        from repro.cluster import ClusterDeployment, default_topology

        runtime.cluster = ClusterDeployment.place(
            runtime.problem,
            runtime.solution,
            runtime.tickets,
            default_topology(cluster_nodes),
        )
    start = time.perf_counter()
    metrics = runtime.run()
    wall_s = time.perf_counter() - start
    served = [t for t in metrics.tasks.values() if t.completed > 0]
    return {
        "target": target,
        "offered": metrics.offered,
        "completed": metrics.completed,
        "wall_s": wall_s,
        "requests_per_s": metrics.offered / wall_s,
        "events_per_s": runtime.simulator.events_processed / wall_s,
        "events": runtime.simulator.events_processed,
        "worst_p95_ms": (
            1e3 * max(t.latency.p95_s for t in served) if served else None
        ),
        "metrics_key": _metrics_key(metrics),
    }


def run(quick: bool) -> dict:
    targets = QUICK_TARGETS if quick else FULL_TARGETS
    scaling = [_scale_run(target) for target in targets]
    local = next(row for row in scaling if row["target"] == CLUSTER_TARGET)
    clustered = _scale_run(CLUSTER_TARGET, cluster_nodes=1)
    cluster = {
        "target": CLUSTER_TARGET,
        "nodes": 1,
        "wall_s": clustered["wall_s"],
        "bit_equal": clustered["metrics_key"] == local["metrics_key"],
    }
    for row in scaling:
        row.pop("metrics_key")
    report = {
        "bench": "bench_serving",
        "mode": "quick" if quick else "full",
        "settings": {
            "seed": SEED,
            "duration_s": DURATION_S,
            "targets": list(targets),
            "poisson": True,
            "quick_wall_ceiling_s": QUICK_WALL_CEILING_S,
        },
        "load_curve": load_curve(),
        "prefix_cache": prefix_cache(),
        "scaling": scaling,
        "cluster": cluster,
    }
    gate_ok = cluster["bit_equal"]
    if quick:
        gate_ok = gate_ok and all(
            row["wall_s"] <= QUICK_WALL_CEILING_S for row in scaling
        )
    report["gate_ok"] = gate_ok
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 10⁴-offered gate under a wall ceiling",
    )
    args = parser.parse_args()
    report = run(quick=args.quick)

    load_table = format_table(
        ["load x", "offered", "served", "req/s", "worst p95 ms", "miss rate", "gated"],
        [
            [r["load"], r["offered"], r["completed"],
             f"{r['throughput_rps']:.2f}", f"{r['worst_p95_ms']:.2f}",
             f"{r['miss_rate']:.3f}", r["gated"]]
            for r in report["load_curve"]
        ],
    )
    cache_rows = report["prefix_cache"]
    cache_table = format_table(
        ["cache", "served", "compute s", "saved s", "merges"],
        [
            [r["cache"], r["completed"], f"{r['compute_s']:.4f}",
             f"{r['saved_s']:.4f}", r["merges"]]
            for r in cache_rows
        ],
    )
    scale_table = format_table(
        ["offered", "served", "wall s", "req/s", "events/s", "worst p95 ms"],
        [
            [r["offered"], r["completed"], f"{r['wall_s']:.3f}",
             f"{r['requests_per_s']:,.0f}", f"{r['events_per_s']:,.0f}",
             "-" if r["worst_p95_ms"] is None else f"{r['worst_p95_ms']:.2f}"]
            for r in report["scaling"]
        ],
    )
    clu = report["cluster"]
    lines = (
        f"cluster wave point @ {clu['target']} offered, {clu['nodes']} node: "
        f"{clu['wall_s']:.3f} s (bit equal to the local executor: "
        f"{clu['bit_equal']})"
    )
    print(
        "\nServing runtime: offered load vs throughput and deadline misses\n"
        + load_table
        + "\n\nShared-block prefix cache (2x load, 10 s)\n"
        + cache_table
        + "\n\nScale curve (Poisson arrivals)\n"
        + scale_table
        + "\n\n"
        + lines
    )
    if args.quick:
        json_path = REPO_ROOT / "benchmarks" / "results" / "BENCH_serving_quick.json"
    else:
        json_path = REPO_ROOT / "BENCH_serving.json"
    write_json(report, json_path)

    if not report["gate_ok"]:
        print("GATE FAILURE: see the report above")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

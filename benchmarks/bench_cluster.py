"""Cluster fabric — served rate and p95 latency vs node count.

Beyond the paper: OffloaDNN solves *what* to serve (paths, admission,
slices) for one edge server; :mod:`repro.cluster` asks what happens
when the same solved allocation is *placed* across several logical
nodes.  This bench sweeps a homogeneous edge mesh of {1, 2, 4} nodes
(single worker each) and reports, per node count:

* served requests and served rate (req/s) — must not regress vs the
  single node, since the admission gate upstream is identical;
* worst-task p95 latency — splitting paths trades transfer time on the
  activation boundary against parallel segment execution;
* split paths, bytes streamed over links, and mean node utilization
  (clamped busy-window accounting).

The bench also asserts the two fabric invariants the PR promises:

1. a 1-node cluster reproduces the plain ``BatchExecutor`` metrics
   bit-identically, and
2. two identical 3-node runs produce byte-identical virtual-clock
   span logs (DES determinism across the wire layer).

Exits nonzero if either invariant breaks.  ``--quick`` runs a 3-node
2 s smoke (for CI) and writes a Chrome trace that the workflow round-
trips through ``repro trace-summary``.
"""

from __future__ import annotations

import argparse
import pathlib

from benchmarks._report import write_json
from repro.analysis.report import format_table
from repro.cluster import ClusterDeployment, default_topology
from repro.core.heuristic import OffloaDNNSolver
from repro.obs import ObsSession, jsonl_lines
from repro.serving import ServingConfig, ServingRuntime
from repro.serving.queueing import DropReason
from repro.workloads.smallscale import serving_small_scale_problem

REPO_ROOT = pathlib.Path(__file__).parent.parent
SEED = 0
NODE_COUNTS = (1, 2, 4)
LOAD = 2.0


def _runtime(duration_s: float) -> ServingRuntime:
    problem = serving_small_scale_problem(5, seed=SEED)
    config = ServingConfig(duration_s=duration_s, load_factor=LOAD, seed=SEED)
    return ServingRuntime.from_problem(
        problem, config, solver=OffloaDNNSolver(slice_margin_rbs=2)
    )


def _run_cluster(runtime: ServingRuntime, num_nodes: int | None, obs=None):
    """One serving run; ``num_nodes=None`` is the plain single executor."""
    runtime.obs = obs
    if num_nodes is None:
        runtime.cluster = None
    else:
        runtime.cluster = ClusterDeployment.place(
            runtime.problem,
            runtime.solution,
            runtime.tickets,
            default_topology(num_nodes),
        )
    return runtime.run()


def _row(metrics, runtime, num_nodes: int) -> dict:
    p95 = max(
        (t.latency.p95_s for t in metrics.tasks.values() if t.completed > 0),
        default=float("nan"),
    )
    net_drops = sum(
        t.drops[DropReason.REMOTE_ERROR] + t.drops[DropReason.TRANSFER_TIMEOUT]
        for t in metrics.tasks.values()
    )
    if runtime.cluster is not None:
        qos = runtime.executor.qos
        split = runtime.cluster.plan.split_tasks
        streamed = qos.bytes_streamed
        utils = [
            node.utilization(metrics.duration_s)
            for node in runtime.cluster.registry.nodes.values()
        ]
        mean_util = sum(utils) / len(utils)
    else:
        split, streamed, mean_util = 0, 0, float("nan")
    return {
        "nodes": num_nodes,
        "served": metrics.completed,
        "served_rate_rps": metrics.throughput_rps,
        "p95_s": p95,
        "split_paths": split,
        "bytes_streamed": streamed,
        "net_drops": net_drops,
        "mean_node_util": mean_util,
    }


def run(quick: bool = False) -> dict:
    duration_s = 2.0 if quick else 10.0
    counts = (3,) if quick else NODE_COUNTS

    # invariant 1: 1-node cluster == plain BatchExecutor, bit-identical
    runtime = _runtime(duration_s)
    plain = _run_cluster(runtime, None)
    one_node = _run_cluster(runtime, 1)
    parity = plain.completed == one_node.completed and all(
        plain.tasks[tid].latency == one_node.tasks[tid].latency
        and plain.tasks[tid].drops == one_node.tasks[tid].drops
        for tid in plain.tasks
    )

    # invariant 2: byte-identical virtual span logs across two 3-node runs
    logs = []
    for _ in range(2):
        fresh = _runtime(duration_s)
        obs = ObsSession()
        _run_cluster(fresh, 3, obs=obs)
        logs.append(jsonl_lines([obs.virtual]))
    deterministic = logs[0] == logs[1]

    sweep = []
    for num_nodes in counts:
        metrics = _run_cluster(runtime, num_nodes)
        sweep.append(_row(metrics, runtime, num_nodes))

    report = {
        "bench": "cluster",
        "seed": SEED,
        "duration_s": duration_s,
        "load_factor": LOAD,
        "quick": quick,
        "one_node_parity": parity,
        "deterministic_trace": deterministic,
        "sweep": sweep,
    }

    if quick:
        # CI round-trips this through `repro trace-summary`
        trace_runtime = _runtime(duration_s)
        obs = ObsSession()
        _run_cluster(trace_runtime, 3, obs=obs)
        trace_path = REPO_ROOT / "benchmarks" / "results" / "BENCH_cluster_trace.json"
        trace_path.parent.mkdir(exist_ok=True)
        obs.write_trace(trace_path)
        report["trace_file"] = str(trace_path.relative_to(REPO_ROOT))
        report["trace_spans"] = obs.span_count
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="3-node 2 s smoke for CI (writes a round-trippable trace)",
    )
    args = parser.parse_args()

    report = run(quick=args.quick)
    rows = [
        [
            r["nodes"],
            r["served"],
            r["served_rate_rps"],
            1e3 * r["p95_s"],
            r["split_paths"],
            r["bytes_streamed"],
            r["net_drops"],
            100.0 * r["mean_node_util"],
        ]
        for r in report["sweep"]
    ]
    table = format_table(
        [
            "nodes", "served", "rate r/s", "p95 ms",
            "splits", "bytes", "net-drop", "util %",
        ],
        rows,
        precision=1,
    )
    summary = (
        table
        + f"\none-node parity with BatchExecutor: {report['one_node_parity']}"
        + f"\nbyte-identical 3-node traces: {report['deterministic_trace']}"
    )
    print("\n" + summary)

    if args.quick:
        json_path = REPO_ROOT / "benchmarks" / "results" / "BENCH_cluster_quick.json"
    else:
        json_path = REPO_ROOT / "BENCH_cluster.json"
    write_json(report, json_path)

    failed = False
    if not report["one_node_parity"]:
        print("PARITY FAILURE: 1-node cluster diverged from BatchExecutor")
        failed = True
    if not report["deterministic_trace"]:
        print("DETERMINISM FAILURE: 3-node span logs differ across runs")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

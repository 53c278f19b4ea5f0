"""Command-line interface.

Exposes the main entry points of the reproduction without writing any
Python::

    python -m repro solve-small --tasks 5 --optimal
    python -m repro solve-large --rate high
    python -m repro emulate --tasks 5 --duration 20
    python -m repro serve-sim --tasks 5 --load 2.0
    python -m repro profile --arch mobilenetv2
    python -m repro reproduce fig9

``reproduce`` regenerates one paper artifact and prints the text its
record under ``benchmarks/results/`` holds.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections.abc import Sequence

from repro.analysis.artifacts import ARTIFACTS, SWEEPS, sweep_section
from repro.analysis.report import format_series, format_table

__all__ = ["main", "build_parser"]


def _bounded_int(low: int, high: int | None = None):
    """An argparse ``type=`` for an integer in ``[low, high]``: anything
    else ends in argparse's one-line ``error:`` and exit 2."""
    span = f">= {low}" if high is None else f"in {low}..{high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """An argparse ``type=`` for a finite float above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _sweep_values(text: str) -> list[float]:
    """An argparse ``type=`` for ``--values``: comma-separated finite
    floats above zero (an RB count, a memory budget in GB or a rate)."""
    values = []
    for item in text.split(","):
        try:
            values.append(_positive_float(item))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"{exc} in {text!r}") from None
    return values


#: the small-scale scenario has tasks 1..5
_TASKS = _bounded_int(1, 5)
#: numpy seeds are non-negative
_SEED = _bounded_int(0)


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="OUT.json",
        help="record an execution trace; with a path, write Perfetto-"
        "loadable Chrome trace-event JSON there (bare --trace just "
        "prints the flamegraph summary)",
    )


def _start_trace(trace_arg: str | None):
    """``(session, scope)`` of a ``--trace`` run: inside the scope the
    solver's phases land on the session's wall tracer; ``(None, no-op)``
    without the flag."""
    if trace_arg is None:
        return None, contextlib.nullcontext()
    from repro.obs import ObsSession, use_tracer

    obs = ObsSession()
    return obs, use_tracer(obs.wall)


def _finish_trace(obs, trace_arg: str) -> None:
    """Write/print one recorded session (shared --trace epilogue)."""
    if trace_arg:
        obs.write_trace(trace_arg)
        print(f"wrote {obs.span_count} spans to {trace_arg}")
    print(obs.summary())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OffloaDNN (ICDCS 2024) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    small = sub.add_parser("solve-small", help="solve the Table IV small-scale scenario")
    small.add_argument("--tasks", type=_TASKS, default=5, help="number of tasks (1..5)")
    small.add_argument(
        "--optimal", action="store_true", help="also solve with the exhaustive optimum"
    )
    small.add_argument("--seed", type=_SEED, default=0)

    large = sub.add_parser("solve-large", help="solve the Table IV large-scale scenario")
    large.add_argument(
        "--rate", choices=["low", "medium", "high"], default="medium",
        help="task request load",
    )
    large.add_argument("--seed", type=_SEED, default=0)

    scale = sub.add_parser(
        "solve-scale",
        help="solve a replicated large-scale instance (10^4-10^6 users)",
    )
    scale.add_argument(
        "--users", type=_bounded_int(1), default=10_000,
        help="modeled users (rounded up to a multiple of 20 tasks)",
    )
    scale.add_argument(
        "--rate", choices=["low", "medium", "high"], default="medium"
    )
    scale.add_argument(
        "--no-aggregate", action="store_true",
        help="solve per task instead of aggregating replicas into meta-tasks",
    )
    scale.add_argument("--seed", type=_SEED, default=0)
    _add_trace_arg(scale)

    emulate = sub.add_parser("emulate", help="run the Fig. 11 emulation")
    emulate.add_argument("--tasks", type=_TASKS, default=5)
    emulate.add_argument("--duration", type=_positive_float, default=20.0, help="seconds")
    emulate.add_argument("--seed", type=_SEED, default=0)
    _add_trace_arg(emulate)

    profile = sub.add_parser("profile", help="profile a DNN substrate model")
    profile.add_argument(
        "--arch", choices=["resnet18", "mobilenetv2"], default="resnet18"
    )
    # both backbone builders reject an input under 8 pixels
    profile.add_argument("--input-size", type=_bounded_int(8), default=32)
    profile.add_argument("--classes", type=_bounded_int(1), default=60)
    profile.add_argument("--repeats", type=_bounded_int(1), default=5)
    profile.add_argument(
        "--int8", action="store_true",
        help="time the int8-quantized plan instead of the fp32 one",
    )

    reproduce = sub.add_parser(
        "reproduce", help="print a paper artifact as benchmarks/results/ holds it"
    )
    reproduce.add_argument("artifact", choices=list(ARTIFACTS))

    serve = sub.add_parser(
        "serve-sim", help="run the serving runtime on the small-scale scenario"
    )
    serve.add_argument("--tasks", type=_TASKS, default=5, help="number of tasks (1..5)")
    serve.add_argument("--duration", type=float, default=10.0, help="seconds")
    serve.add_argument(
        "--load", type=float, default=1.0, help="offered-load multiplier on λ"
    )
    serve.add_argument("--window", type=float, default=0.005, help="batch window (s)")
    serve.add_argument(
        "--workers", type=int, default=None,
        help="executor workers (default 1; single-node only — cluster "
        "nodes take their worker counts from the topology)",
    )
    serve.add_argument(
        "--slice-margin", type=_bounded_int(0), default=2,
        help="extra RBs per admitted slice (uplink headroom for batching)",
    )
    serve.add_argument(
        "--no-prefix-cache", action="store_true",
        help="disable shared-block prefix fusion in the executor",
    )
    serve.add_argument(
        "--int8-activations", action="store_true",
        help="ship cluster-hop activations as int8+scale wire frames "
        "(4x fewer payload bytes than fp32; multi-node only)",
    )
    serve.add_argument("--poisson", action="store_true", help="Poisson arrivals")
    serve.add_argument("--seed", type=_SEED, default=0)
    serve.add_argument(
        "--cluster", default=None, metavar="NODES",
        help="serve across a multi-node fabric: a nodes.json topology "
        "file or an integer edge-node count",
    )
    _add_trace_arg(serve)

    trace_summary = sub.add_parser(
        "trace-summary", help="validate and summarize a recorded trace file"
    )
    trace_summary.add_argument("input", help="Chrome trace JSON or span JSONL file")
    trace_summary.add_argument(
        "--top", type=_bounded_int(0), default=40,
        help="max root spans shown per clock domain",
    )

    sweep = sub.add_parser("sweep", help="sensitivity sweep on the large scenario")
    sweep.add_argument("--knob", choices=list(SWEEPS), default="radio")
    sweep.add_argument(
        "--values", type=_sweep_values, default=None,
        help="comma-separated knob values (defaults per knob)",
    )
    # whether a value must be a whole RB count depends on --knob
    sweep.set_defaults(usage_error=sweep.error)

    export = sub.add_parser("export-problem", help="serialize a scenario to JSON")
    export.add_argument("output", help="destination JSON file")
    export.add_argument(
        "--scenario", choices=["small", "large"], default="small"
    )
    export.add_argument("--tasks", type=_TASKS, default=5, help="small-scenario size")
    export.add_argument(
        "--rate", choices=["low", "medium", "high"], default="medium"
    )

    solve_file = sub.add_parser("solve-file", help="solve a serialized problem")
    solve_file.add_argument("input", help="problem JSON file")
    solve_file.add_argument(
        "--solution-out", default=None, help="write the solution JSON here"
    )
    return parser


def _cmd_solve_small(args: argparse.Namespace) -> int:
    from repro.core.heuristic import OffloaDNNSolver
    from repro.core.objective import objective_value
    from repro.core.optimal import OptimalSolver
    from repro.workloads.smallscale import small_scale_problem

    problem = small_scale_problem(args.tasks, seed=args.seed)
    solvers = [OffloaDNNSolver()]
    if args.optimal:
        solvers.append(OptimalSolver())
    for solver in solvers:
        solution = solver.solve(problem)
        print(f"\n[{solution.solver_name}] solved in {solution.solve_time_s:.4f} s")
        rows = []
        for task in problem.tasks:
            a = solution.assignment(task)
            rows.append(
                [
                    task.task_id,
                    a.path.path_id if a.path else "-",
                    a.admission_ratio,
                    a.radio_blocks,
                ]
            )
        print(format_table(["task", "path", "z", "RBs"], rows, precision=2))
        print(
            f"objective {objective_value(problem, solution):.4f}  "
            f"memory {solution.total_memory_gb:.2f} GB  "
            f"RBs {solution.total_radio_blocks:.1f}"
        )
    return 0


def _cmd_solve_large(args: argparse.Namespace) -> int:
    from repro.baselines.semoran import SemORANSolver
    from repro.core.heuristic import OffloaDNNSolver
    from repro.workloads.largescale import RequestRate, large_scale_problem

    rate = RequestRate[args.rate.upper()]
    problem = large_scale_problem(rate, seed=args.seed)
    for solver in (OffloaDNNSolver(), SemORANSolver()):
        solution = solver.solve(problem)
        ratios = [solution.assignment(t).admission_ratio for t in range(1, 21)]
        print(f"\n[{solution.solver_name}] {rate.label} rate")
        print(format_series("admission", ratios, precision=2))
        print(
            f"admitted {solution.admitted_task_count}/20  "
            f"memory {solution.total_memory_gb:.2f}/{problem.budgets.memory_gb} GB  "
            f"RBs {solution.total_radio_blocks:.1f}/{problem.budgets.radio_blocks}  "
            f"inference {solution.total_inference_compute_s:.2f}/"
            f"{problem.budgets.compute_time_s} s"
        )
    return 0


def _cmd_solve_scale(args: argparse.Namespace) -> int:
    from repro.core.aggregate import AggregateSolver
    from repro.core.heuristic import OffloaDNNSolver
    from repro.workloads.largescale import RequestRate, replicated_large_scale_problem

    obs, scope = _start_trace(args.trace)
    rate = RequestRate[args.rate.upper()]
    replicas = -(-args.users // 20)
    problem = replicated_large_scale_problem(rate, replicas, seed=args.seed)
    with scope:
        if args.no_aggregate:
            solution = OffloaDNNSolver().solve(problem)
        else:
            solver = AggregateSolver()
            solution = solver.solve(problem)
    print(
        f"[{solution.solver_name}] {len(problem.tasks)} tasks "
        f"({rate.label} rate)"
    )
    if not args.no_aggregate:
        assert solver.last_plan is not None
        print(
            f"aggregated to {solver.last_plan.num_groups} meta-tasks "
            f"({solver.last_plan.compression:.0f}x compression)"
        )
    print(
        f"admitted {solution.admitted_task_count}/{len(problem.tasks)}  "
        f"weighted admission {solution.weighted_admission_ratio:.2f}  "
        f"RBs {solution.total_radio_blocks:.1f}/{problem.budgets.radio_blocks}"
    )
    print(
        f"tree build {solution.tree_build_time_s:.4f} s  "
        f"solve {solution.solve_time_s:.4f} s  "
        f"total {solution.total_time_s:.4f} s"
    )
    if obs is not None:
        _finish_trace(obs, args.trace)
    return 0


def _cmd_emulate(args: argparse.Namespace) -> int:
    from repro.analysis.artifacts import fig11

    obs, scope = _start_trace(args.trace)
    with scope:
        artifact = fig11(args.tasks, args.duration, args.seed, obs)
    print(artifact.text)
    if obs is not None:
        _finish_trace(obs, args.trace)
    return 0 if artifact.data["within_limits"] else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.dnn.profiler import profile_model

    if args.arch == "resnet18":
        from repro.dnn.resnet import build_resnet18

        model = build_resnet18(num_classes=args.classes, input_size=args.input_size)
    else:
        from repro.dnn.mobilenet import build_mobilenetv2

        model = build_mobilenetv2(
            num_classes=args.classes, input_size=args.input_size, width_multiplier=1.0
        )
    quantize = "int8" if args.int8 else None
    profile = profile_model(model, repeats=args.repeats, quantize=quantize)
    rows = [
        [b.name, b.compute_time_s * 1e3, b.params, b.flops / 1e6, b.memory_bytes / 1e6]
        for b in profile.blocks
    ]
    print(
        f"{args.arch} @ {args.input_size}px, {args.classes} classes"
        f" ({quantize or 'fp32'} plan)"
    )
    print(
        format_table(
            ["block", "time ms", "params", "MFLOPs", "mem MB"], rows, precision=2
        )
    )
    print(
        f"total: {profile.total_compute_time_s * 1e3:.2f} ms, "
        f"{profile.total_params:,} params"
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    print(ARTIFACTS[args.artifact]().text)
    return 0


def _load_topology(spec: str):
    """Resolve a --cluster value: integer mesh size or nodes.json path."""
    from repro.cluster import ClusterTopology, default_topology

    try:
        num_nodes = int(spec)
    except ValueError:
        return ClusterTopology.load(spec)
    return default_topology(num_nodes)


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.core.heuristic import OffloaDNNSolver
    from repro.serving import ServingConfig, ServingRuntime
    from repro.workloads.smallscale import serving_small_scale_problem

    if args.cluster is not None and args.workers is not None:
        print(
            "error: --workers has no effect with a cluster; set num_workers "
            "per node in the topology (nodes.json)",
            file=sys.stderr,
        )
        return 2
    topology = None
    if args.cluster is not None:
        try:
            topology = _load_topology(args.cluster)
        except (ValueError, OSError) as exc:  # invalid JSON is a ValueError
            print(f"error: topology {args.cluster!r}: {exc}", file=sys.stderr)
            return 2
    try:
        config = ServingConfig(
            duration_s=args.duration,
            batch_window_s=args.window,
            num_workers=1 if args.workers is None else args.workers,
            prefix_cache=not args.no_prefix_cache,
            poisson=args.poisson,
            load_factor=args.load,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs, scope = _start_trace(args.trace)
    problem = serving_small_scale_problem(args.tasks, seed=args.seed)
    with scope:
        runtime = ServingRuntime.from_problem(
            problem, config, solver=OffloaDNNSolver(slice_margin_rbs=args.slice_margin)
        )
    runtime.obs = obs
    if topology is not None:
        import dataclasses

        from repro.cluster import ClusterDeployment

        if args.int8_activations:
            topology = dataclasses.replace(topology, int8_activations=True)
        runtime.cluster = ClusterDeployment.place(
            problem, runtime.solution, runtime.tickets, topology
        )
    metrics = runtime.run()
    print(
        f"serving {args.tasks} tasks for {args.duration:g} s "
        f"at {args.load:g}x offered load "
        f"(prefix cache {'on' if config.prefix_cache else 'off'})"
    )
    print(
        format_table(
            list(metrics.SUMMARY_HEADER), metrics.summary_rows(), precision=1
        )
    )
    print(
        f"throughput {metrics.throughput_rps:.1f} req/s  "
        f"deadline-miss rate {metrics.deadline_miss_rate:.3f}  "
        f"windows {metrics.windows}"
    )
    print("admission promise (constraint (1g): uplink + compute of the solved "
          "path and slice) against delivered")
    print(
        format_table(
            list(runtime.PROMISE_HEADER), runtime.promise_rows(metrics), precision=1
        )
    )
    print(
        f"simulated compute {metrics.total_compute_s:.4f} s"
        + (
            f"  (prefix cache saved {metrics.compute_saved_s:.4f} s, "
            f"{metrics.prefix_merges} merges)"
            if config.prefix_cache
            else ""
        )
    )
    if topology is not None:
        qos = runtime.executor.qos
        print(
            f"cluster: {len(topology.nodes)} nodes, "
            f"{runtime.cluster.plan.split_tasks} split paths, "
            f"{qos.bytes_streamed} bytes streamed"
        )
        print(
            format_table(
                list(qos.NODE_HEADER), qos.node_rows(metrics.duration_s), precision=1
            )
        )
        link_rows = qos.link_rows()
        if link_rows:
            print(format_table(list(qos.LINK_HEADER), link_rows, precision=0))
    if obs is not None:
        _finish_trace(obs, args.trace)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweep import sweep

    values = args.values or SWEEPS[args.knob][1]
    if args.knob == "radio":
        fractional = [value for value in values if value != int(value)]
        if fractional:
            args.usage_error(
                "argument --values: an RB count must be a whole number, "
                f"got {fractional[0]:g}"
            )
        values = [int(v) for v in values]
    print(sweep_section(args.knob, sweep(args.knob, values)))
    return 0


def _cmd_export_problem(args: argparse.Namespace) -> int:
    from repro.core.serialize import dump_problem

    if args.scenario == "small":
        from repro.workloads.smallscale import small_scale_problem

        problem = small_scale_problem(args.tasks)
    else:
        from repro.workloads.largescale import RequestRate, large_scale_problem

        problem = large_scale_problem(RequestRate[args.rate.upper()])
    dump_problem(problem, args.output)
    print(f"wrote {len(problem.tasks)}-task problem to {args.output}")
    return 0


def _cmd_solve_file(args: argparse.Namespace) -> int:
    from repro.core.heuristic import OffloaDNNSolver
    from repro.core.objective import objective_value
    from repro.core.serialize import dump_solution, load_problem

    try:
        problem = load_problem(args.input)
    except (ValueError, OSError) as exc:  # invalid JSON is a ValueError
        print(f"error: problem {args.input!r}: {exc}", file=sys.stderr)
        return 2
    solution = OffloaDNNSolver().solve(problem)
    rows = [
        [
            t.task_id,
            solution.assignment(t).path.path_id if solution.assignment(t).path else "-",
            solution.assignment(t).admission_ratio,
            solution.assignment(t).radio_blocks,
        ]
        for t in problem.tasks
    ]
    print(format_table(["task", "path", "z", "RBs"], rows, precision=2))
    print(f"objective: {objective_value(problem, solution):.4f}")
    if args.solution_out:
        dump_solution(solution, args.solution_out)
        print(f"wrote solution to {args.solution_out}")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.obs import flame_summary, load_records

    try:
        tracers = load_records(args.input)
    except OSError as exc:
        print(f"error: {args.input}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    total = sum(len(t.records) for t in tracers)
    domains = ", ".join(
        f"{t.domain} ({len(t.records)})" for t in tracers
    ) or "none"
    print(f"{args.input}: {total} records; domains: {domains}")
    print(flame_summary(tracers, top=args.top))
    return 0


_COMMANDS = {
    "solve-small": _cmd_solve_small,
    "solve-large": _cmd_solve_large,
    "solve-scale": _cmd_solve_scale,
    "emulate": _cmd_emulate,
    "profile": _cmd_profile,
    "reproduce": _cmd_reproduce,
    "serve-sim": _cmd_serve_sim,
    "trace-summary": _cmd_trace_summary,
    "sweep": _cmd_sweep,
    "export-problem": _cmd_export_problem,
    "solve-file": _cmd_solve_file,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""The six workloads: what each one drives and how it is verified.

Every workload is a class with ``setup(seed, quick)`` (everything before
the measured section; its time is ``setup_s``) and ``measure(seconds)``
(repeat the operation until ``seconds`` have passed, verify every
repetition, return a :class:`Measured`).  Every time is taken on
``calibration.clock``, which leaves out the harness's own speed samples.
``--seed`` feeds only the generators here (arrival seed, input tensors, de-sharing, visiting
order); the program receives generated inputs and never a workload name.

The program is reached through attribute lookups on its packages
(``repro.core.check_constraints(...)``, not a name imported here) so
that the traced pass, which swaps those attributes for timing wrappers,
measures the same calls.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

import repro.cluster
import repro.core
import repro.dnn
import repro.serving
import repro.workloads
import repro.workloads.largescale

import checks
from calibration import clock as perf
from stats import summarize


class Op(NamedTuple):
    """One timed operation: where it lies on the clock, and how long was timed."""

    start: float
    end: float
    #: the timed part of ``[start, end]`` (verification in between is not)
    seconds: float


def unscaled(_op: Op) -> float:
    """The ``scale`` that leaves every operation as it was timed."""
    return 1.0


@dataclass
class Measured:
    """What one measured section produced."""

    #: the operations (median seconds -> ``op_p50_ms``)
    ops: list[Op]
    #: the part of each operation that did its ``work`` (median -> ``work_per_s``)
    rated: list[Op]
    #: work units one repetition does
    work: float
    #: share of the workload's outcome that is good (``quality_share``)
    quality: float
    #: repetitions of the measured section (layer metrics are per repetition)
    reps: float
    #: operations verified, operations failed, first few violations
    verdicts: "Verdicts"
    #: layer metrics computable from the program's public outputs
    layers: dict[str, float] = field(default_factory=dict)
    #: tail-latency layer metrics (ms): name -> ``stats.summarize`` record
    tails: dict[str, dict] = field(default_factory=dict)

    def slots(self, scale=unscaled) -> tuple[float, float]:
        """``(op_p50 seconds, work per second)``; ``scale(op)`` is the factor
        that takes one operation's seconds to reference speed."""
        return (
            statistics.median(op.seconds * scale(op) for op in self.ops),
            statistics.median(self.work / (op.seconds * scale(op)) for op in self.rated),
        )


class Verdicts:
    """Counts verified operations and keeps the first few violations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, violations: list[str]) -> None:
        self.attempted += 1
        self.flag(violations)

    def flag(self, violations: list[str]) -> None:
        """Count a violation that belongs to no single new operation."""
        if violations:
            self.failed += 1
            self.messages.extend(violations[: max(0, 8 - len(self.messages))])


#: how an interpreter-bound workload's time follows the calibration kernel's:
#: time ~ kernel ** 1.3 (see README, "Reference speed")
INTERPRETED = 1.3


def repeat_until(seconds: float, minimum: int, op) -> int:
    """Call ``op(i)`` until ``seconds`` have passed and ``minimum`` calls ran."""
    start = perf()
    reps = 0
    while reps < minimum or perf() - start < seconds:
        op(reps)
        reps += 1
    return reps


# --------------------------------------------------------------------------
# solver workloads
# --------------------------------------------------------------------------


class SolveTally:
    """Times solver calls and accumulates what their solutions report."""

    EXACT = (
        "core.solves", "core.groups", "core.admitted_tasks",
        "core.weighted_admission", "priority_weight",
    )
    HOST = (
        "core.tree_build_s", "core.select_s", "core.expand_s",
        "core.call_overhead_s", "core.check_s",
    )

    def __init__(self) -> None:
        self.verdicts = Verdicts()
        self.latencies: list[float] = []
        self.passes: list[Op] = []
        self.sums: Counter = Counter()
        #: the exact counters after pass 0; every pass repeats them
        self.first_pass: dict = {}

    def run_pass(self, jobs) -> None:
        """Solve every ``(solver, problem, priority weight, expands)`` job."""
        start = perf()
        in_solver = sum(self.solve(*job) for job in jobs)
        self.passes.append(Op(start, perf(), in_solver))
        if not self.first_pass:
            self.first_pass = {name: self.sums[name] for name in self.EXACT}

    def solve(self, solver, problem, priority_weight: float, expands: bool) -> float:
        start, system_start = perf(), time.perf_counter()
        solution = solver.solve(problem)
        wall, system_wall = perf() - start, time.perf_counter() - system_start
        start = perf()
        report = repro.core.check_constraints(problem, solution)
        check_s = perf() - start
        self.verdicts.op(checks.check_solution(report))
        self.latencies.append(wall)
        plan = getattr(solver, "last_plan", None)
        sums = self.sums
        sums["core.solves"] += 1
        sums["tasks"] += len(problem.tasks)
        sums["core.groups"] += plan.num_groups if plan is not None else len(problem.tasks)
        sums["core.admitted_tasks"] += solution.admitted_task_count
        sums["core.weighted_admission"] += solution.weighted_admission_ratio
        sums["priority_weight"] += priority_weight
        sums["core.tree_build_s"] += solution.tree_build_time_s
        # the aggregate solver's solve_time_s is the weighted replay and
        # per-task expansion; the plain solver's is select + water-fill
        sums["core.expand_s" if expands else "core.select_s"] += solution.solve_time_s
        # the solver times its phases on the system clock
        sums["core.call_overhead_s"] += system_wall - solution.total_time_s
        sums["core.check_s"] += check_s
        sums["wall"] += wall
        return wall

    def measured(self, work_per_pass: float) -> Measured:
        sums, first = self.sums, self.first_pass
        reps = len(self.passes)
        layers = {name: first[name] for name in self.EXACT[:-1]}
        layers.update({name: sums[name] / reps for name in self.HOST})
        layers["core.us_per_task"] = 1e6 * sums["wall"] / sums["tasks"]
        return Measured(
            ops=self.passes,
            rated=self.passes,
            work=work_per_pass,
            quality=first["core.weighted_admission"] / first["priority_weight"],
            reps=reps,
            verdicts=self.verdicts,
            layers=layers,
            tails={"core.solve_p99_ms": summarize(self.latencies, 99)},
        )


def _priority_weight(problem) -> float:
    return sum(task.priority for task in problem.tasks)


class SolvePaper:
    """The online re-solve loop at paper scale (20 tasks).

    Fixed per-call overhead dominates and vectorisation does not help:
    the ``core`` layer in its small-T regime.
    """

    work_unit = "solves"
    quality_clock = "exact"
    speed_exponent = INTERPRETED

    def setup(self, seed: int, quick: bool) -> None:
        scenarios = repro.workloads
        problems = [
            scenarios.large_scale_problem(rate) for rate in scenarios.RequestRate
        ] + [scenarios.small_scale_problem(5)]
        # the four problems are the paper's; the seed only picks the
        # order they are visited in
        order = np.random.default_rng(seed).permutation(len(problems))
        solver = repro.core.OffloaDNNSolver()
        self.jobs = [
            (solver, problems[i], _priority_weight(problems[i]), False) for i in order
        ]
        self.min_passes = 3 if quick else 50
        for _solver, problem, _weight, _expands in self.jobs:
            solver.solve(problem)

    def measure(self, seconds: float) -> Measured:
        tally = SolveTally()
        repeat_until(seconds, self.min_passes, lambda _rep: tally.run_pass(self.jobs))
        return tally.measured(work_per_pass=len(self.jobs))


class SolvePopulation:
    """The same solver layer at population scale.

    2x10^5 aggregated users and 10^4 de-shared tasks: aggregation, clique
    build and expansion dominate, per-call overhead is nil.  A small-T fast
    path that taxes large T, or the reverse, shows here.
    """

    work_unit = "tasks"
    quality_clock = "exact"
    speed_exponent = INTERPRETED

    def setup(self, seed: int, quick: bool) -> None:
        build = repro.workloads.largescale.replicated_large_scale_problem
        medium = repro.workloads.RequestRate.MEDIUM
        population = build(medium, 500 if quick else 10_000)
        shared = build(medium, 25 if quick else 500)
        # de-share: every task gets its own (seed-permuted) path tuple,
        # so no two tasks hit the same clique memo entry
        rng = np.random.default_rng(seed)
        catalog = repro.core.Catalog()
        for task_id, paths in shared.catalog.paths_by_task.items():
            catalog.paths_by_task[task_id] = tuple(
                paths[i] for i in rng.permutation(len(paths))
            )
        deshared = replace(shared, catalog=catalog)
        self.jobs = [
            (repro.core.AggregateSolver(), population, _priority_weight(population), True),
            (repro.core.OffloaDNNSolver(), deshared, _priority_weight(deshared), False),
        ]
        self.min_passes = 1 if quick else 3

    def measure(self, seconds: float) -> Measured:
        tally = SolveTally()
        repeat_until(seconds, self.min_passes, lambda _rep: tally.run_pass(self.jobs))
        return tally.measured(
            work_per_pass=sum(len(problem.tasks) for _s, problem, _w, _e in self.jobs)
        )


# --------------------------------------------------------------------------
# serving workloads
# --------------------------------------------------------------------------


def replicated_serving_problem(k: int):
    """``serving_small_scale_problem(5)`` x ``k``: tasks and budgets scale.

    Replicas share the base tasks' path tuples by identity, exactly as
    ``replicated_large_scale_problem`` does, so served work grows with
    offered work instead of being shed at a fixed-capacity gate.
    """
    base = repro.workloads.serving_small_scale_problem(5)
    tasks = []
    catalog = repro.core.Catalog()
    for replica in range(k):
        for task in base.tasks:
            task_id = task.task_id + len(base.tasks) * replica
            tasks.append(replace(task, task_id=task_id, name=f"{task.name}-r{replica}"))
            catalog.paths_by_task[task_id] = base.catalog.paths_by_task[task.task_id]
    budgets = replace(
        base.budgets,
        compute_time_s=base.budgets.compute_time_s * k,
        training_budget_s=base.budgets.training_budget_s * k,
        memory_gb=base.budgets.memory_gb * k,
        radio_blocks=base.budgets.radio_blocks * k,
    )
    return replace(base, tasks=tuple(tasks), catalog=catalog, budgets=budgets)


def admit(problem, config):
    """Controller admit + solve; slices get fading headroom as in the CLI."""
    return repro.serving.ServingRuntime.from_problem(
        problem, config, solver=repro.core.OffloaDNNSolver(slice_margin_rbs=10)
    )


def serving_summary(runtime, metrics, num_workers: int | None):
    """Counts, virtual-time shares and violations of one serving run.

    Everything is read from ``run()``'s return value and
    ``runtime.last_requests``; ``num_workers=None`` marks a cluster run,
    whose node and link figures come from ``request.hops``.
    Returns ``(layers, goodput_share, repeatability_key, violations)``.
    """
    per_task = metrics.tasks
    drops: Counter = Counter()
    for task in per_task.values():
        for reason, count in task.drops.items():
            drops[reason.value] += count
    offered, completed = metrics.offered, metrics.completed
    gated = drops.pop("admission", 0)
    late = sum(task.deadline_misses for task in per_task.values())
    records = runtime.last_requests
    cols = checks.record_arrays(records)
    violations = checks.check_conservation(
        offered, gated, drops, completed
    ) + checks.check_records(cols, offered, gated)

    done = ~cols["dropped"] & ~np.isnan(cols["completed_at"])
    limit = (cols["deadline_at"] - cols["created_at"])[done]
    stamps = [
        cols[name][done]
        for name in (
            "created_at", "uplink_done_at", "dispatched_at", "started_at",
            "completed_at",
        )
    ]
    shares = [
        float(np.mean((later - earlier) / limit)) if limit.size else 0.0
        for earlier, later in zip(stamps, stamps[1:])
    ]
    latency_limit = {t.task_id: t.max_latency_s for t in runtime.problem.tasks}
    dispatched = int((~np.isnan(cols["dispatched_at"])).sum())
    net_drops = drops["remote_error"] + drops["transfer_timeout"]
    layers = {
        "serving.offered": offered,
        "serving.gated": gated,
        "serving.completed": completed,
        "serving.late": late,
        "serving.drop_queue_full": drops["queue_full"],
        "serving.drop_deadline": drops["deadline"],
        "serving.windows": metrics.windows,
        "serving.mean_batch": dispatched / max(1, metrics.windows),
        "serving.prefix_merges": metrics.prefix_merges,
        "serving.compute_saved_share": metrics.compute_saved_s
        / max(1e-12, metrics.compute_saved_s + metrics.total_compute_s),
        "serving.sim_ontime_share": (completed - late) / max(1, offered - gated),
        "serving.sim_p95_norm": max(
            (
                task.latency.p95_s / latency_limit[task_id]
                for task_id, task in per_task.items()
                if task.completed
            ),
            default=0.0,
        ),
        "serving.sim_uplink_share": shares[0],
        "serving.sim_queue_share": shares[1],
        "serving.sim_batch_share": shares[2],
        "serving.sim_execute_share": shares[3],
        "emulator.events": runtime.simulator.events_processed,
        "cluster.net_drops": net_drops,
    }
    if num_workers is not None:
        util = metrics.total_compute_s / (num_workers * metrics.duration_s)
        layers["serving.worker_util"] = util
        violations += checks.check_utilisation("worker pool", util)
    else:
        cluster_layers, cluster_violations = _cluster_summary(
            records, metrics.duration_s
        )
        layers.update(cluster_layers)
        layers["serving.worker_util"] = cluster_layers["cluster.mean_node_util"]
        violations += cluster_violations
    key = (
        tuple(sorted((k, v) for k, v in layers.items() if isinstance(v, int))),
        float(stamps[-1].sum()),
        metrics.total_compute_s,
    )
    return layers, (completed - late) / max(1, offered), key, violations


def _cluster_summary(records, duration_s: float):
    """Node and link figures rebuilt from the per-request hop journeys."""
    hops = set()
    split_tasks = set()
    link_share = 0.0
    hop_count = 0
    served = 0
    for request in records:
        if request.drop_reason is not None or not request.hops:
            continue
        served += 1
        hop_count += len(request.hops)
        transfer_s = 0.0
        for hop in request.hops:
            hops.add(hop)  # batch-mates share hops; count each once
            if hop.kind == "transfer":
                transfer_s += hop.end_s - hop.start_s
                split_tasks.add(request.task_id)
        link_share += transfer_s / (request.completed_at - request.created_at)
    # hops are hashed by their strings, so set order changes from process
    # to process: fsum keeps the des figures independent of it
    busy = {
        node: math.fsum(
            h.end_s - h.start_s for h in hops if h.kind == "exec" and h.where == node
        )
        for node in sorted({h.where for h in hops if h.kind == "exec"})
    }
    violations = []
    for node, seconds in busy.items():
        # default_topology nodes have one worker each
        violations += checks.check_utilisation(f"node {node}", seconds / duration_s)
    layers = {
        "cluster.split_paths": len(split_tasks),
        "cluster.bytes_streamed": sum(h.nbytes for h in hops if h.kind == "transfer"),
        "cluster.hops_per_req": hop_count / max(1, served),
        "cluster.mean_node_util": math.fsum(busy.values())
        / (max(1, len(busy)) * duration_s),
        "cluster.sim_link_share": link_share / max(1, served),
    }
    return layers, violations


class Serve:
    """Single-node serving of the k-replicated deployment.

    ``config`` holds the ``ServingConfig`` fields that tell the two uses
    apart (see :data:`WORKLOADS`): capacity-scaled, where the gate sheds
    nothing and queue scan, dispatch and metric build do the work; and
    overload against a throttled dispatcher, where arrival draw,
    closed-form admission and the drop paths do.
    """

    work_unit = "requests served"
    quality_clock = "des"
    speed_exponent = INTERPRETED

    def __init__(self, **config) -> None:
        self.config = config

    def setup(self, seed: int, quick: bool) -> None:
        self.k = 5 if quick else 100
        settings = dict(self.config)
        if "max_batch" in settings:  # the dispatcher throttle is stated for k = 100
            settings["max_batch"] = max(1, settings["max_batch"] * self.k // 100)
        config = repro.serving.ServingConfig(
            num_workers=self.k, poisson=True, seed=seed, **settings
        )
        self.runtime = admit(replicated_serving_problem(self.k), config)
        self.min_reps = 1 if quick else 2

    def measure(self, seconds: float) -> Measured:
        verdicts = Verdicts()
        runs: list[Op] = []
        state: dict = {}

        def one_run(_rep: int) -> None:
            # start from a collected heap: whether the previous run's cyclic
            # garbage is gone by now is otherwise a matter of timing and made
            # peak_rss_mb bimodal (163 vs 180 MB on serve_overload)
            gc.collect()
            start = perf()
            metrics = self.runtime.run()
            end = perf()
            runs.append(Op(start, end, end - start))
            layers, goodput, key, violations = serving_summary(
                self.runtime, metrics, self.k
            )
            violations += checks.check_repeatable([state.setdefault("key", key), key])
            verdicts.op(violations)
            state.update(layers=layers, goodput=goodput)

        reps = repeat_until(seconds, self.min_reps, one_run)
        return _serving_measured(runs, runs, state, reps, verdicts)


def _serving_measured(ops, runs, state, reps, verdicts) -> Measured:
    """``ops`` per repetition; ``runs`` the part of each spent in ``run()``."""
    layers = state["layers"]
    layers["emulator.events_per_s"] = layers["emulator.events"] / statistics.median(
        run.seconds for run in runs
    )
    return Measured(
        ops=ops,
        rated=runs,
        work=layers["serving.completed"],
        quality=state["goodput"],
        reps=reps,
        verdicts=verdicts,
        layers=layers,
    )


class ClusterChain:
    """The whole control-to-data chain per repetition.

    Build, admit, place on 4 nodes, serve 600 s virtual: placement, per-hop
    dispatch, links and the event heap dominate; the single-node executor
    is not used.
    """

    work_unit = "requests served"
    quality_clock = "des"
    speed_exponent = INTERPRETED

    def setup(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.duration_s = 30.0 if quick else 600.0
        self.topology = repro.cluster.default_topology(4)
        self.min_reps = 1 if quick else 2
        # fill import and allocator caches with a short chain
        self.chain(self.duration_s / 20.0)

    def chain(self, duration_s: float):
        config = repro.serving.ServingConfig(
            duration_s=duration_s, poisson=True, load_factor=1.0, seed=self.seed
        )
        runtime = admit(replicated_serving_problem(2), config)
        runtime.cluster = repro.cluster.ClusterDeployment.place(
            runtime.problem, runtime.solution, runtime.tickets, self.topology
        )
        start = perf()
        metrics = runtime.run()
        end = perf()
        return runtime, metrics, Op(start, end, end - start)

    def measure(self, seconds: float) -> Measured:
        verdicts = Verdicts()
        chains: list[Op] = []
        runs: list[Op] = []
        state: dict = {}

        def one_chain(_rep: int) -> None:
            gc.collect()  # as in Serve.measure
            start = perf()
            runtime, metrics, in_run = self.chain(self.duration_s)
            layers, goodput, key, violations = serving_summary(runtime, metrics, None)
            end = perf()
            chains.append(Op(start, end, end - start))
            runs.append(in_run)
            violations += checks.check_repeatable([state.setdefault("key", key), key])
            verdicts.op(violations)
            state.update(layers=layers, goodput=goodput)

        reps = repeat_until(seconds, self.min_reps, one_chain)
        return _serving_measured(chains, runs, state, reps, verdicts)


# --------------------------------------------------------------------------
# real engine
# --------------------------------------------------------------------------

TRUNK = ("stem", "layer1", "layer2", "layer3")
OWN = ("layer4", "head")
PRECISIONS = ("fp32", "int8")
#: metric suffixes of the small / medium / large batch size
SIZE_NAMES = ("b1", "b8", "b32")
NUM_PATHS = 5
#: prefix-cache bound: the last 16 inputs' four trunk activations.  A frame
#: only ever hits its own input's; the default 256 keeps 64 inputs' (11.7 MB
#: each at batch 32), and this stream is still growing into that much new
#: memory when a 10 s run ends (see README, "Memory")
CACHE_ENTRIES = 64


@dataclass
class MeasuredStream(Measured):
    """A stream of frames of several kinds: slots from per-kind medians.

    A frame takes 6 ms to 0.4 s with its batch size, its precision and
    whether its five paths share the trunk.  The median over all frames
    therefore falls between two kinds, and a dozen batch-32 frames set any
    total: both moved by a quarter from run to run.  The median latency of
    each kind, weighted by how many frames of that kind a block of the
    stream holds, moves with neither, and does not depend on where in a
    block the run stopped.
    """

    #: ``(batch size, precision, shared)`` of each frame in ``ops``
    kinds: list[tuple[int, str, bool]] = field(default_factory=list)
    #: the kinds of the frames of one block of the stream
    block_cells: list[tuple[int, str, bool]] = field(default_factory=list)

    def slots(self, scale=unscaled) -> tuple[float, float]:
        """``(batch-1 frame seconds, inferences per second)``: the first is
        the mean over the batch-1 kinds of their median latency, the second
        one block's inferences over one block's frames at median latency."""
        by_kind: dict[tuple, list[float]] = {}
        for op, kind in zip(self.ops, self.kinds):
            by_kind.setdefault(kind, []).append(op.seconds * scale(op))
        p50 = {kind: statistics.median(seconds) for kind, seconds in by_kind.items()}
        smallest = min(n for n, _precision, _shared in p50)
        inferences = sum(
            n * (NUM_PATHS if shared else 1) for n, _precision, shared in self.block_cells
        )
        return (
            statistics.fmean(s for kind, s in p50.items() if kind[0] == smallest),
            inferences / sum(p50[kind] for kind in self.block_cells),
        )


class ExecuteReal:
    """numpy wall clock of the compiled fp32/int8 engine.

    Closed loop, one client; half the frames hit the shared-trunk prefix
    cache and half bypass it.  Solver and DES do no work.
    """

    work_unit = "inferences"
    quality_clock = "exact"
    speed_exponent = 1.0  # numpy work, as the kernel is

    def setup(self, seed: int, quick: bool) -> None:
        dnn = repro.dnn
        self.sizes = (1, 2, 4) if quick else (1, 8, 32)
        # frames per stream block, by batch size: 0.85 / 0.10 / 0.05, each a
        # multiple of 4 so {fp32, int8} x {shared, unique} split evenly
        counts = (8, 4, 4) if quick else (68, 8, 4)
        self.block_cells = [
            (n, PRECISIONS[j % 2], (j // 2) % 2 == 0)
            for n, count in zip(self.sizes, counts)
            for j in range(count)
        ]

        base = dnn.build_resnet18(width=32, seed=0)
        models = []
        modules = {f"base:{name}": base.blocks[name] for name in TRUNK}
        for i in range(NUM_PATHS):
            donor = dnn.build_resnet18(width=32, seed=i + 1)
            blocks = {name: base.blocks[name] for name in TRUNK}
            for name in OWN:
                blocks[name] = modules[f"p{i}:{name}"] = donor.blocks[name]
            models.append(replace(donor, blocks=blocks))
        quality = repro.core.QualityLevel(name="full", bits_per_image=350_000.0)
        self.paths: dict[str, list] = {}
        for precision in PRECISIONS:
            self.paths[precision] = []
            for i, model in enumerate(models):
                profile = dnn.profile_model(
                    model, compiled=True, quantize=None if precision == "fp32" else "int8",
                    clock=perf,
                )
                blocks = tuple(
                    repro.core.Block(
                        block_id=f"base:{b.name}" if b.name in TRUNK else f"p{i}:{b.name}",
                        dnn_id="rn18w32",
                        compute_time_s=b.compute_time_s,
                        memory_gb=b.memory_gb,
                    )
                    for b in profile.blocks
                )
                self.paths[precision].append(
                    repro.core.Path(f"p{i}", "rn18w32", i + 1, blocks, 0.9, quality)
                )
                if precision == "fp32" and i == 0:
                    self.trunk_flops = sum(b.flops for b in profile.blocks if b.name in TRUNK)
                    self.own_flops = sum(b.flops for b in profile.blocks if b.name in OWN)
        self.input_shape = base.input_shape
        self.runners = {
            precision: repro.serving.BlockwiseRunner(
                modules=modules,
                cacheable=frozenset(f"base:{name}" for name in TRUNK),
                cache_capacity=CACHE_ENTRIES,
                compile_blocks=True,
                quantize=None if precision == "fp32" else "int8",
            )
            for precision in PRECISIONS
        }
        # compile every block plan and allocate its buffers at every batch
        # size before timing; the prefix cache does not key on the batch
        # size, so each size needs a key of its own to reach the trunk
        for precision, runner in self.runners.items():
            for n in self.sizes:
                x = np.zeros((n, *self.input_shape), dtype=np.float32)
                for path in self.paths[precision]:
                    runner.run(path, x, input_key=-n)
            runner.clear()
        self.rng = np.random.default_rng(seed)
        self.keys = iter(range(1, 1 << 62))

    def _input(self, rng, n: int) -> np.ndarray:
        return rng.standard_normal((n, *self.input_shape), dtype=np.float32)

    def measure(self, seconds: float) -> Measured:
        verdicts = Verdicts()
        frames: list[Op] = []
        kinds: list[tuple[int, str, bool]] = []
        flops = 0
        lookups: Counter = Counter()  # prefix-cache hits and misses of timed frames
        for runner in self.runners.values():
            runner.clear()  # every measured section starts with a cold prefix cache

        def evictions() -> int:
            return sum(r.cache_evictions for r in self.runners.values())

        def timed(kind, x: np.ndarray, pick: int) -> list[np.ndarray]:
            """One frame: under all five paths with one key, or under one path."""
            n, precision, shared = kind
            runner, paths = self.runners[precision], self.paths[precision]
            key = next(self.keys)
            hits, misses = runner.cache_hits, runner.cache_misses
            start = perf()
            if shared:
                outs = [runner.run(path, x, input_key=key) for path in paths]
            else:
                outs = [runner.run(paths[pick], x, input_key=key)]
            end = perf()
            frames.append(Op(start, end, end - start))
            kinds.append(kind)
            lookups["hits"] += runner.cache_hits - hits
            lookups["misses"] += runner.cache_misses - misses
            return outs

        def stream():
            """The seeded stream: whole blocks, each in a fresh order."""
            while True:
                for cell in self.rng.permutation(len(self.block_cells)):
                    yield self.block_cells[cell]

        # one untimed frame of every kind first: the cache's big entries are
        # the memory the stream needs, and first-touched memory is what this
        # host charges most erratically for (see README, "Memory")
        for kind in dict.fromkeys(self.block_cells):
            timed(kind, self._input(self.rng, kind[0]), 0)
        del frames[:], kinds[:]
        lookups.clear()
        evictions_before = evictions()
        # the stream gets 6/10 of the run and at least one block; with the
        # frames before it and the cost-model grid's after it that fills the
        # run.  A full 10 s run streams 2 blocks or so
        block = len(self.block_cells)
        start = perf()
        for frame, kind in enumerate(stream()):
            if frame >= block and perf() - start >= 0.6 * seconds:
                break
            n, precision, shared = kind
            x = self._input(self.rng, n)
            pick = frame % NUM_PATHS
            outs = timed(kind, x, pick)
            out = outs[pick if shared else 0]
            violations = checks.check_frame_output(out, n)
            if shared:
                bypassed = self.runners[precision].run(
                    self.paths[precision][pick], x, input_key=next(self.keys)
                )
                violations += checks.check_frame_equal(out, bypassed)
            verdicts.op(violations)
            flops += n * (self.trunk_flops + (NUM_PATHS if shared else 1) * self.own_flops)
            if frame + 1 == block:
                # how far the stream gets depends on the host's speed, so the
                # cache counts are those of the first block
                hit_share = lookups["hits"] / (lookups["hits"] + lookups["misses"])
                first_block_evictions = evictions() - evictions_before
        streamed = [op.seconds for op in frames]
        layers, agree, images = self._grid(timed, frames)
        verdicts.flag(checks.check_int8_agreement(agree, images))
        reference = self.paths["fp32"][0]
        layers.update(
            {
                "dnn.trunk_share": sum(
                    b.compute_time_s for b in reference.blocks[: len(TRUNK)]
                )
                / reference.compute_time_s,
                "dnn.cache_hit_share": hit_share,
                "dnn.cache_evictions": first_block_evictions,
                "dnn.gflops_s": flops / sum(streamed) / 1e9,
                "dnn.int8_top1_agree": agree / images,
            }
        )
        return MeasuredStream(
            ops=frames,
            rated=frames,
            work=0.0,
            quality=agree / images,
            reps=len(streamed) / block,
            verdicts=verdicts,
            layers=layers,
            tails={"dnn.frame_p90_ms": summarize(streamed, 90)},
            kinds=kinds,
            block_cells=self.block_cells,
        )

    def _grid(self, timed, frames) -> tuple[dict[str, float], int, int]:
        """Single-path cells: measured time vs DES charge, int8 vs fp32 top-1.

        The five paths are one architecture with different weights, so a
        cell's measured time is the median over one cache-bypassing frame
        under each of them (``timed`` logs them as more frames of the
        stream's single-path kinds); the charge is each path's own profiled
        block times pushed through ``BatchExecutor().dispatch`` at that
        batch size.  Inputs are a fixed probe set (not ``--seed``): both
        precisions see the same images on the same paths, so top-1
        agreement is balanced over the paths and repeats exactly.
        Returns ``(layers, agreeing images, images compared)``.
        """
        serving = repro.serving
        probe = np.random.default_rng(0)
        layers: dict[str, float] = {}
        errors: list[float] = []
        agree = images = 0
        for n, size in zip(self.sizes, SIZE_NAMES):
            x = self._input(probe, n)
            measured: dict[str, float] = {}
            top1: dict[str, list] = {}
            size_errors = []
            for precision in PRECISIONS:
                paths = self.paths[precision]
                top1[precision] = [
                    timed((n, precision, False), x, pick)[0].argmax(axis=1)
                    for pick in range(NUM_PATHS)
                ]
                cell = measured[precision] = statistics.median(
                    op.seconds for op in frames[-NUM_PATHS:]
                )
                layers[f"dnn.block_ms.{precision}.{size}"] = 1e3 * cell
                for path in paths:
                    window = [
                        serving.ServingRequest(
                            task_id=path.task_id, request_id=j, path=path,
                            created_at=0.0, deadline_at=1.0, bits=path.bits_per_image,
                        )
                        for j in range(n)
                    ]
                    charged = serving.BatchExecutor().dispatch(window, 0.0).compute_s
                    size_errors.append(abs(charged - cell) / cell)
            for fp32, int8 in zip(top1["fp32"], top1["int8"]):
                agree += int((fp32 == int8).sum())
                images += n
            layers[f"dnn.int8_speedup.{size}"] = measured["fp32"] / measured["int8"]
            layers[f"serving.cost_model_mape.{size}"] = float(np.mean(size_errors))
            errors += size_errors
        layers["serving.cost_model_mape"] = float(np.mean(errors))
        return layers, agree, images



#: name -> factory; every set-up gets a fresh object
WORKLOADS = {
    "solve_paper": SolvePaper,
    "solve_population": SolvePopulation,
    "serve_scaled": lambda: Serve(
        duration_s=30.0, batch_window_s=0.002, load_factor=1.0
    ),
    # the issue's max_batch=40 / 20 ms put 13 % of admitted requests on time
    # (a fused window of 40 costs more than L); 20 / 10 ms gives 47 %, with
    # queue_full and deadline drops each above 2 % of offered
    "serve_overload": lambda: Serve(
        duration_s=60.0, batch_window_s=0.01, load_factor=3.0, max_batch=20, queue_depth=8
    ),
    "cluster_chain": ClusterChain,
    "execute_real": ExecuteReal,
}

"""Served-work benchmark: solver, DES data plane, cluster, real engine.

One workload, as the benchmark driver runs it (last stdout line is the
result JSON; ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones)::

    python3 benchmarks/e2e/run.py --workload serve_scaled --seed 3 --seconds 10 --trace 0

Every workload, each in a fresh child process, with a result file::

    python3 benchmarks/e2e/run.py --all --seed 3 --trace 1 --out benchmarks/e2e/out

See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import os

# before numpy: one BLAS thread, so a 2-core shared box gives repeatable times
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from calibration import REFERENCE_MS, Calibrator, clock
from stats import quartile_spread

#: end-to-end metrics: name -> (unit, better); one value per workload.
#: What each one means on each workload is tabulated in README.md.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "work_per_s": ("1/s", "higher"),
    "quality_share": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_S, _COUNT, _RATIO = "s", "count", "ratio"
#: per-layer metrics: name -> (unit, better, clock).  ``host`` values come
#: from spans or timers; ``exact`` and ``des`` values repeat under one seed
#: and must be identical between the traced and the untraced pass.
PER_LAYER = {
    "workloads.build_s": (_S, "lower", "host"),
    "core.aggregate_s": (_S, "lower", "host"),
    "core.tree_build_s": (_S, "lower", "host"),
    "core.select_s": (_S, "lower", "host"),
    "core.expand_s": (_S, "lower", "host"),
    "core.call_overhead_s": (_S, "lower", "host"),
    "core.check_s": (_S, "lower", "host"),
    "core.us_per_task": ("us", "lower", "host"),
    "core.solve_p99_ms": ("ms", "lower", "host"),
    "core.solves": (_COUNT, "higher", "exact"),
    "core.groups": (_COUNT, "lower", "exact"),
    "core.admitted_tasks": (_COUNT, "higher", "exact"),
    "core.weighted_admission": (_RATIO, "higher", "exact"),
    "edge.admit_s": (_S, "lower", "host"),
    "serving.waveplan_build_s": (_S, "lower", "host"),
    "serving.push_due_s": (_S, "lower", "host"),
    "serving.queue_push_s": (_S, "lower", "host"),
    "serving.queue_pop_s": (_S, "lower", "host"),
    "serving.queue_pop_calls": (_COUNT, "lower", "trace"),
    "serving.dispatch_s": (_S, "lower", "host"),
    "serving.metrics_s": (_S, "lower", "host"),
    "serving.run_self_s": (_S, "lower", "host"),
    "serving.offered": (_COUNT, "higher", "exact"),
    "serving.gated": (_COUNT, "lower", "exact"),
    "serving.completed": (_COUNT, "higher", "exact"),
    "serving.late": (_COUNT, "lower", "exact"),
    "serving.drop_queue_full": (_COUNT, "lower", "exact"),
    "serving.drop_deadline": (_COUNT, "lower", "exact"),
    "serving.windows": (_COUNT, "lower", "exact"),
    "serving.mean_batch": (_COUNT, "higher", "exact"),
    "serving.prefix_merges": (_COUNT, "higher", "exact"),
    "serving.compute_saved_share": (_RATIO, "higher", "des"),
    "serving.sim_ontime_share": (_RATIO, "higher", "des"),
    "serving.sim_p95_norm": (_RATIO, "lower", "des"),
    "serving.sim_uplink_share": (_RATIO, "lower", "des"),
    "serving.sim_queue_share": (_RATIO, "lower", "des"),
    "serving.sim_batch_share": (_RATIO, "lower", "des"),
    "serving.sim_execute_share": (_RATIO, "lower", "des"),
    "serving.worker_util": (_RATIO, "lower", "des"),
    "serving.cost_model_mape": (_RATIO, "lower", "host"),
    "serving.cost_model_mape.b1": (_RATIO, "lower", "host"),
    "serving.cost_model_mape.b8": (_RATIO, "lower", "host"),
    "serving.cost_model_mape.b32": (_RATIO, "lower", "host"),
    "emulator.events": (_COUNT, "lower", "exact"),
    "emulator.events_per_s": ("1/s", "higher", "host"),
    "emulator.sim_run_self_s": (_S, "lower", "host"),
    "emulator.schedule_s": (_S, "lower", "host"),
    "cluster.place_s": (_S, "lower", "host"),
    "cluster.dispatch_s": (_S, "lower", "host"),
    "cluster.split_paths": (_COUNT, "higher", "exact"),
    "cluster.bytes_streamed": ("bytes", "lower", "exact"),
    "cluster.hops_per_req": (_COUNT, "lower", "exact"),
    "cluster.net_drops": (_COUNT, "lower", "exact"),
    "cluster.mean_node_util": (_RATIO, "lower", "des"),
    "cluster.sim_link_share": (_RATIO, "lower", "des"),
    "dnn.compile_s": (_S, "lower", "host"),
    "dnn.profile_s": (_S, "lower", "host"),
    "dnn.block_ms.fp32.b1": ("ms", "lower", "host"),
    "dnn.block_ms.fp32.b8": ("ms", "lower", "host"),
    "dnn.block_ms.fp32.b32": ("ms", "lower", "host"),
    "dnn.block_ms.int8.b1": ("ms", "lower", "host"),
    "dnn.block_ms.int8.b8": ("ms", "lower", "host"),
    "dnn.block_ms.int8.b32": ("ms", "lower", "host"),
    "dnn.int8_speedup.b1": (_RATIO, "higher", "host"),
    "dnn.int8_speedup.b8": (_RATIO, "higher", "host"),
    "dnn.int8_speedup.b32": (_RATIO, "higher", "host"),
    "dnn.trunk_share": (_RATIO, "lower", "host"),
    "dnn.cache_hit_share": (_RATIO, "higher", "exact"),
    "dnn.cache_evictions": (_COUNT, "lower", "exact"),
    "dnn.gflops_s": ("GFLOP/s", "higher", "host"),
    "dnn.frame_p90_ms": ("ms", "lower", "host"),
    "dnn.int8_top1_agree": (_RATIO, "higher", "exact"),
    "obs.trace_overhead_share": (_RATIO, "lower", "host"),
    "obs.spans": (_COUNT, "lower", "trace"),
    "host.calib_ms": ("ms", "lower", "host"),
}

_CALLS, _TOTAL, _SELF = 0, 1, 2
#: layer metric -> (span name, which aggregate of it)
SPAN_METRICS = {
    "workloads.build_s": ("workloads.build", _TOTAL),
    "core.aggregate_s": ("core.aggregate", _TOTAL),
    "edge.admit_s": ("edge.admit", _TOTAL),
    "serving.waveplan_build_s": ("serving.waveplan_build", _TOTAL),
    "serving.push_due_s": ("serving.push_due", _SELF),
    "serving.queue_push_s": ("serving.queue_push", _TOTAL),
    "serving.queue_pop_s": ("serving.queue_pop", _TOTAL),
    "serving.queue_pop_calls": ("serving.queue_pop", _CALLS),
    "serving.dispatch_s": ("serving.dispatch", _TOTAL),
    "serving.metrics_s": ("serving.metrics", _TOTAL),
    "serving.run_self_s": ("serving.run", _SELF),
    "emulator.sim_run_self_s": ("emulator.sim_run", _SELF),
    "emulator.schedule_s": ("emulator.schedule", _TOTAL),
    "cluster.place_s": ("cluster.place", _TOTAL),
    "cluster.dispatch_s": ("cluster.dispatch", _TOTAL),
    "dnn.compile_s": ("dnn.compile", _TOTAL),
    "dnn.profile_s": ("dnn.profile", _SELF),
}

#: warn when the calibration kernel drifts by more than this across a run
CALIB_DRIFT = 0.10


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "seed": seed,
    }


def keep_freed_memory() -> None:
    """Tell glibc malloc to serve every size from the heap and never trim it.

    A page touched for the first time costs this VM's guest 6-200 us, by
    the minute (its memory is backed lazily by the host), where a recycled
    one costs nothing; the engine workload touched 50 000 a run while it
    was being timed.  With freed memory kept, a run pays for its pages once,
    in its first set-up, and ``peak_rss_mb`` reads the same.
    """
    m_trim_threshold, m_mmap_max = -1, -4  # <malloc.h>
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(m_mmap_max, 0)
        libc.mallopt(m_trim_threshold, 2**31 - 1)
    except (OSError, AttributeError):
        pass  # another libc: run as it is


def set_up(name: str, seed: int, quick: bool, repeats: int):
    """Build the workload ``repeats`` times; returns ``(an Op each, workload)``.

    ``setup_s`` is a median, so the set-up is repeated; a set-up of a few
    tens of milliseconds is repeated further, up to ten times as often,
    until one second has been spent on it.
    """
    from workloads import WORKLOADS, Op

    setups: list[Op] = []
    workload = None
    while len(setups) < repeats or (
        repeats > 1 and len(setups) < 10 * repeats and sum(op.seconds for op in setups) < 1.0
    ):
        workload = None  # free the previous state first
        start = clock()
        workload = WORKLOADS[name]()
        workload.setup(seed, quick)
        end = clock()
        setups.append(Op(start, end, end - start))
    return setups, workload


def layers_of(measured, setup_spans=None, spans=None) -> dict:
    """Layer metrics of one measured section.

    Span times are per repetition where the layer ran in the measured
    section, per set-up otherwise.
    """
    layers = dict(measured.layers)
    layers.update({name: 1e3 * tail["tail"] for name, tail in measured.tails.items()})
    for metric, (span, stat) in SPAN_METRICS.items():
        if span in (spans or {}):
            layers[metric] = spans[span][stat] / measured.reps
        elif span in (setup_spans or {}):
            layers[metric] = setup_spans[span][stat]
    return layers


def repeated_exactly(untraced: dict, traced: dict) -> list[str]:
    """Exact and virtual-time layer values must not depend on tracing."""
    return [
        f"trace: {metric} = {traced.get(metric)} traced, {value} untraced"
        for metric, value in untraced.items()
        if PER_LAYER[metric][2] in ("exact", "des") and traced.get(metric) != value
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One workload in this process; returns the run's detail record."""
    keep_freed_memory()
    calibrator = Calibrator()
    calibrator.start()
    try:
        return calibrated_run(name, seed, seconds, trace, quick, calibrator)
    finally:
        calibrator.stop()


def calibrated_run(
    name: str, seed: int, seconds: float, trace: bool, quick: bool, calibrator: Calibrator
) -> dict:
    """Set up, measure, and build the detail record while ``calibrator`` samples.

    A traced run sets up once, under the wrappers, so the set-up layers
    have spans; it then measures untraced for half the time (the overhead
    denominator, and the counts the traced half must reproduce) and
    traced for the other half, on the same workload object.
    """
    tracer = None
    if trace:
        from tracer import WRAPS, Tracer

        tracer = Tracer(clock)
        tracer.install()
    try:
        setups, workload = set_up(name, seed, quick, 1 if trace or quick else 3)
    finally:
        if tracer:
            tracer.uninstall()
    measured = workload.measure(0.5 * seconds if trace else seconds)
    public_layers = layers_of(measured)
    op_p50, work_per_s = measured.slots()
    verdicts = measured.verdicts
    failures = list(verdicts.messages)
    attempted, failed = verdicts.attempted, verdicts.failed

    per_layer = None
    if tracer:
        setup_spans = tracer.take()
        tracer.install()
        try:
            traced = workload.measure(0.5 * seconds)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        per_layer = layers_of(traced, setup_spans, spans)
        attempted += traced.verdicts.attempted
        failed += traced.verdicts.failed
        failures += traced.verdicts.messages
        differing = repeated_exactly(public_layers, per_layer)
        failed += bool(differing)
        failures += differing
        per_layer["obs.trace_overhead_share"] = traced.slots()[0] / op_p50 - 1.0
        per_layer["obs.spans"] = sum(calls for calls, _t, _s in spans.values()) / traced.reps
        # a layer that did no work here measures 0; a layer whose trace
        # target no longer resolves is unknown
        dead = {WRAPS[dotted] for dotted in tracer.unresolved}
        for metric in PER_LAYER:
            span = SPAN_METRICS.get(metric, (None,))[0]
            per_layer.setdefault(metric, None if span in dead else 0.0)

    if len(calibrator.samples_ms) >= 40 and calibrator.drift() > CALIB_DRIFT:
        print(
            f"warning: host.calib_ms drifted {100 * calibrator.drift():.0f} % during "
            f"{name}; the host's speed changed within this run",
            file=sys.stderr,
        )
    public_layers["host.calib_ms"] = calibrator.median_ms
    if per_layer is not None:
        per_layer["host.calib_ms"] = calibrator.median_ms

    # the host-time slots are reported at reference speed: every operation is
    # scaled by the calibration samples in and next to it (see calibration.py)
    def scale(op) -> float:
        return calibrator.at_reference(op.start, op.end) ** workload.speed_exponent

    ref_op_p50, ref_work_per_s = measured.slots(scale)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # metric -> (value, value as timed, clock, samples)
    slots = {
        "setup_s": (
            statistics.median(op.seconds * scale(op) for op in setups),
            statistics.median(op.seconds for op in setups), "host", len(setups),
        ),
        "op_p50_ms": (1e3 * ref_op_p50, 1e3 * op_p50, "host", len(measured.ops)),
        "work_per_s": (ref_work_per_s, work_per_s, "host", len(measured.rated)),
        "quality_share": (measured.quality, measured.quality, workload.quality_clock, 1),
        "peak_rss_mb": (peak_rss_mb, peak_rss_mb, "host", 1),
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "environment": environment(seed),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failures": failures,
        "end_to_end": {
            metric: {
                "value": value,
                "unit": END_TO_END[metric][0],
                "clock": clock,
                "n": n,
                "raw": raw,
            }
            for metric, (value, raw, clock, n) in slots.items()
        },
        "work_unit": workload.work_unit,
        "tails": measured.tails,
        "calibration": {
            "reference_ms": REFERENCE_MS,
            "median_ms": calibrator.median_ms,
            "samples": len(calibrator.samples_ms),
            "drift": calibrator.drift(),
        },
        # the arrival schedule is open-loop in *virtual* time and the
        # engine stream is closed-loop, so no generator can run late
        "generator_lateness_s": 0.0,
        "public_layers": public_layers,
        "per_layer": per_layer,
        # first spans of the traced half: [id, parent id, name, start, end]
        "spans": tracer.spans if tracer else None,
    }


def result_line(detail: dict, trace: bool) -> str:
    """The driver's result object: one line, every declared metric."""
    if trace:
        layers = detail["per_layer"]
        metrics = {
            # the driver wants a number: an unresolved layer (null) reads 0
            name: {"value": layers[name] or 0.0, "unit": unit}
            for name, (unit, _better, _clock) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in detail["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": detail["failed"] == 0,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": metrics,
        }
    )


# --------------------------------------------------------------------------
# --all: every workload in its own child process
# --------------------------------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: bool, quick: bool, out) -> dict:
    detail_path = out / "runs" / f"{name}.s{seed}.t{int(trace)}.json"
    detail_path.parent.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--detail", str(detail_path),
    ] + (["--quick"] if quick else [])
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads(detail_path.read_text())


def run_all(seed: int, runs: int, seconds: float, trace: bool, quick: bool, out) -> dict:
    from workloads import WORKLOADS

    result = {
        "schema": 1,
        "seconds": seconds,
        "quick": quick,
        "seeds": [seed + i for i in range(runs)],
        "environment": environment(seed),
        "layer_clocks": {name: clock for name, (_u, _b, clock) in PER_LAYER.items()},
        "workloads": {},
    }
    for name in WORKLOADS:
        records = []
        for run_seed in result["seeds"]:
            record = run_child(name, run_seed, seconds, False, quick, out)
            if trace:
                traced = run_child(name, run_seed, seconds, True, quick, out)
                record["per_layer"] = traced["per_layer"]
                record["attempted"] += traced["attempted"]
                record["failed"] += traced["failed"]
                record["failures"] += traced["failures"]
                # the two children are separate processes: their exact
                # and virtual-time figures must still be the same numbers
                differing = repeated_exactly(record["public_layers"], traced["per_layer"])
                record["failed"] += bool(differing)
                record["failures"] += differing
                record["fail_share"] = record["failed"] / record["attempted"]
            records.append(record)
            print(f"{name} seed {run_seed}: done", file=sys.stderr)
        result["workloads"][name] = records
    return result


def print_table(result: dict) -> None:
    """Every metric by name and unit; median (and quartile spread) over runs."""
    runs = len(result["seeds"])
    print(
        f"\nend-to-end ({runs} run(s) per workload; spread = IQR / median; no load "
        "generator can run late: arrivals are open-loop in virtual time, the engine "
        "stream is closed-loop)"
    )
    print(f"{'workload':18}{'metric':16}{'value':>14} {'unit':7}{'clock':6}{'n':>6}{'spread':>9}")
    for name, records in result["workloads"].items():
        for metric in END_TO_END:
            entries = [r["end_to_end"][metric] for r in records]
            values = [e["value"] for e in entries]
            print(
                f"{name:18}{metric:16}{statistics.median(values):14.6g} "
                f"{entries[0]['unit']:7}{entries[0]['clock']:6}{entries[0]['n']:6d}"
                f"{100 * quartile_spread(values):8.1f}%"
            )
        fail = sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)
        print(f"{name:18}{'fail_share':16}{fail:14.6g} ratio  exact")
        for metric, tail in records[0]["tails"].items():
            print(
                f"{'':18}{metric} = {1e3 * tail['tail']:.4g} ms is p{tail['tail_pct']} "
                f"over {tail['n']} samples ({tail['beyond']} beyond it)"
            )
        for record in records:
            for failure in record["failures"]:
                print(f"{'':18}FAILED seed {record['seed']}: {failure}")
    if not any(r["per_layer"] for rs in result["workloads"].values() for r in rs):
        return
    names = list(result["workloads"])
    print("\nper-layer (median over runs; 0 = the layer did no work there)")
    print(f"{'metric':30}{'unit':9}{'clock':6}" + "".join(f"{n[:14]:>15}" for n in names))
    for metric, (unit, _better, clock) in PER_LAYER.items():
        cells = []
        for name in names:
            values = [r["per_layer"].get(metric) for r in result["workloads"][name]]
            known = [v for v in values if v is not None]
            cells.append(f"{statistics.median(known):15.6g}" if known else f"{'-':>15}")
        print(f"{metric:30}{unit:9}{clock:6}" + "".join(cells))


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="--all: seeds seed..seed+runs-1")
    parser.add_argument("--out", type=pathlib.Path, help="--all: directory for result.json")
    parser.add_argument("--detail", type=pathlib.Path, help="write this run's full record")
    parser.add_argument("--quick", action="store_true", help="1/20 size smoke")
    args = parser.parse_args(argv)
    seconds = args.seconds / 20.0 if args.quick else args.seconds

    if args.all:
        out = args.out or HERE / "out"
        result = run_all(args.seed, args.runs, seconds, bool(args.trace), args.quick, out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
        print_table(result)
        print(f"\nwrote {out / 'result.json'}")
        failed = sum(r["failed"] for rs in result["workloads"].values() for r in rs)
        return 1 if failed else 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"give --all or --workload from {sorted(WORKLOADS)}")
    detail = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    if args.detail:
        args.detail.write_text(json.dumps(detail, indent=1) + "\n")
    for failure in detail["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(result_line(detail, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

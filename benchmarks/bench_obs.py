"""Observability overhead — the cost of ``repro.obs`` when nobody looks.

The tracing layer promises *zero overhead when disabled*: every
instrumented site pays one thread-local read plus one attribute check
(``tracer = current_tracer(); if tracer.enabled:``) and nothing else.
This bench proves the claim two ways:

1. **Site cost**: times both guard shapes in a tight loop against an
   empty loop of the same shape — the full thread-local lookup (paid
   once per solver phase / compiled forward) and the hoisted
   ``tracer.enabled`` check (paid per event in the serving and engine
   hot loops) — yielding nanoseconds per instrumented site.
2. **Run parity + overhead bound**: runs the same seeded serving
   simulation with ``obs=None`` and with a live
   :class:`~repro.obs.ObsSession`, asserts the resulting
   :class:`~repro.serving.metrics.ServingMetrics` are **bit-identical**
   (the acceptance criterion: observing the run must not change it;
   field by field in ``tests/test_obs_integration.py``), and bounds the
   disabled overhead as
   ``spans_recorded_when_enabled × hoisted_site_cost / disabled_wall``
   — the number of spans an enabled run records is an upper proxy for
   how often a disabled run evaluates a guard.

The enabled run's Chrome trace is also round-tripped through
:func:`~repro.obs.validate_chrome_trace` so CI catches schema drift.

Exits nonzero if parity breaks, the overhead bound exceeds
``OVERHEAD_BUDGET`` (2%), or the trace fails validation.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import time

import numpy as np

from benchmarks._report import write_json
from repro.core.heuristic import OffloaDNNSolver
from repro.obs import ObsSession, current_tracer, validate_chrome_trace
from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.workloads.smallscale import serving_small_scale_problem

REPO_ROOT = pathlib.Path(__file__).parent.parent
SEED = 0
#: maximum tolerated disabled-tracing overhead (fraction of run time)
OVERHEAD_BUDGET = 0.02


def _lookup_loop(n: int) -> None:
    """Cold-site cost: thread-local lookup + enabled predicate.

    This is what a site that cannot hoist pays — once per solver phase
    or per compiled forward, never per event.
    """
    for _ in range(n):
        tracer = current_tracer()
        if tracer.enabled:  # pragma: no cover - tracing is off here
            tracer.event("bench", cat="bench")


def _hoisted_loop(n: int) -> None:
    """Hot-site cost: the tracer is already bound, only ``.enabled``.

    The serving runtime and the compiled engine hoist the lookup out of
    their event/step loops, so per-event sites pay exactly this.
    """
    tracer = current_tracer()
    for _ in range(n):
        if tracer.enabled:  # pragma: no cover - tracing is off here
            tracer.event("bench", cat="bench")


def _empty_loop(n: int) -> None:
    for _ in range(n):
        pass


def _best_of(fn, n: int, repeats: int) -> float:
    """Minimum wall time of ``fn(n)`` — min, not median, for loop timing."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn(n)
        best = min(best, time.perf_counter() - start)
    return best


def site_costs_ns(iterations: int, repeats: int) -> tuple[float, float]:
    """(lookup_ns, hoisted_ns) a disabled site costs on this machine."""
    empty = _best_of(_empty_loop, iterations, repeats)
    lookup = _best_of(_lookup_loop, iterations, repeats)
    hoisted = _best_of(_hoisted_loop, iterations, repeats)
    return (
        max(0.0, lookup - empty) / iterations * 1e9,
        max(0.0, hoisted - empty) / iterations * 1e9,
    )


def _runtime(duration_s: float) -> ServingRuntime:
    problem = serving_small_scale_problem(5, seed=SEED)
    return ServingRuntime.from_problem(
        problem,
        config=ServingConfig(duration_s=duration_s, num_workers=2, seed=SEED),
        solver=OffloaDNNSolver(slice_margin_rbs=2),
    )


def run(quick: bool) -> dict:
    iterations = 200_000 if quick else 1_000_000
    loop_repeats = 5 if quick else 9
    run_repeats = 3 if quick else 5
    duration_s = 2.0 if quick else 10.0

    lookup_ns, hoisted_ns = site_costs_ns(iterations, loop_repeats)

    runtime = _runtime(duration_s)

    # disabled runs: obs stays None, only the guards execute
    runtime.obs = None
    disabled_walls = []
    baseline = None
    for _ in range(run_repeats):
        start = time.perf_counter()
        baseline = runtime.run()
        disabled_walls.append(time.perf_counter() - start)
    disabled_wall = float(np.median(disabled_walls))

    # enabled run: fresh session so span counts reflect one run exactly
    obs = ObsSession()
    runtime.obs = obs
    start = time.perf_counter()
    observed = runtime.run()
    enabled_wall = time.perf_counter() - start
    runtime.obs = None

    # Each recorded span/event corresponds to (at least) one guard the
    # disabled run evaluated.  The serving runtime binds its tracer once
    # per run, so those guards are hoisted attribute checks; charging
    # every one of them the hoisted cost bounds what the disabled run
    # spent on observability.
    estimated_sites = obs.span_count
    overhead = estimated_sites * hoisted_ns * 1e-9 / disabled_wall

    trace_problems = validate_chrome_trace(obs.chrome_trace())

    return {
        "bench": "bench_obs",
        "mode": "quick" if quick else "full",
        "settings": {
            "seed": SEED,
            "loop_iterations": iterations,
            "loop_repeats": loop_repeats,
            "run_repeats": run_repeats,
            "duration_s": duration_s,
            "overhead_budget": OVERHEAD_BUDGET,
        },
        "lookup_site_ns": lookup_ns,
        "hoisted_site_ns": hoisted_ns,
        "disabled_wall_s": disabled_wall,
        "enabled_wall_s": enabled_wall,
        "estimated_sites": estimated_sites,
        "overhead_fraction": overhead,
        # every field and float of the summary, nan included, in its repr
        "metrics_bit_identical": repr(baseline) == repr(observed),
        "trace_problems": trace_problems,
        "phases": obs.phase_breakdown(),
        "span_count": obs.span_count,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short run for CI smoke: fewer loop iterations, 2 s of traffic",
    )
    args = parser.parse_args()

    report = run(quick=args.quick)
    summary = (
        f"disabled site cost: {report['lookup_site_ns']:.1f} ns "
        f"(thread-local lookup), {report['hoisted_site_ns']:.1f} ns "
        f"(hoisted check)\n"
        f"serving run (tracing off): {report['disabled_wall_s'] * 1e3:.1f} ms"
        f"   (tracing on: {report['enabled_wall_s'] * 1e3:.1f} ms, "
        f"{report['span_count']} spans)\n"
        f"bounded disabled overhead: {100 * report['overhead_fraction']:.3f}%"
        f" of run time ({report['estimated_sites']} sites)"
        f"   budget: {100 * OVERHEAD_BUDGET:.0f}%\n"
        f"metrics bit-identical with tracing on: "
        f"{report['metrics_bit_identical']}\n"
        f"chrome trace validation problems: {len(report['trace_problems'])}"
    )
    print("\n" + summary)

    if args.quick:
        json_path = REPO_ROOT / "benchmarks" / "results" / "BENCH_obs_quick.json"
    else:
        json_path = REPO_ROOT / "BENCH_obs.json"
    write_json(report, json_path)

    failed = False
    if not report["metrics_bit_identical"]:
        print("PARITY FAILURE: tracing changed the metrics")
        failed = True
    if report["overhead_fraction"] >= OVERHEAD_BUDGET:
        print(
            f"OVERHEAD FAILURE: {100 * report['overhead_fraction']:.2f}% "
            f">= {100 * OVERHEAD_BUDGET:.0f}%"
        )
        failed = True
    if report["trace_problems"]:
        print("TRACE VALIDATION FAILURE:")
        for problem in report["trace_problems"]:
            print(f"  {problem}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

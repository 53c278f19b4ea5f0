"""Property-based invariants of a request-level serving run.

Hypothesis draws serving configurations (arrival process, overload, drain
cap, dispatcher period, queue depth) and checks conservation
(offered = gated + Σ drops by reason + completed; one record per
gate-admitted request, ending dropped or completed), per-request causality
(created <= uplink done <= dispatched <= started <= completed), FIFO uplink
order per slice and determinism under a seed.  ``benchmarks/e2e/checks.py``
has its own copy of the first two (it cannot import from ``src/``); one case
runs both on the same records.
"""

from __future__ import annotations

import importlib.util
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import DropReason, ServingConfig, ServingRuntime
from repro.workloads.smallscale import small_scale_problem

_STAGES = ("created_at", "uplink_done_at", "dispatched_at", "started_at", "completed_at")


@st.composite
def serving_runs(draw):
    config = ServingConfig(
        duration_s=draw(st.sampled_from([2.0, 4.0])),
        poisson=draw(st.booleans()),
        load_factor=draw(st.sampled_from([0.5, 1.0, 3.0])),
        max_batch=draw(st.sampled_from([None, 1, 3])),
        # a slow dispatcher over one-deep queues reaches queue-full drops
        batch_window_s=draw(st.sampled_from([0.005, 0.25])),
        queue_depth=draw(st.sampled_from([1, 32])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    tasks = draw(st.integers(min_value=1, max_value=4))
    return tasks, config


def _run(drawn):
    num_tasks, config = drawn
    runtime = ServingRuntime.from_problem(small_scale_problem(num_tasks, seed=0), config)
    return runtime, runtime.run()


def _conservation(runtime, metrics) -> list[str]:
    out = []
    for task_id, t in metrics.tasks.items():
        records = sum(r.task_id == task_id for r in runtime.last_requests)
        if t.offered != sum(t.drops.values()) + t.completed:
            out.append(f"task {task_id}: offered != gated + drops + completed")
        if records != t.offered - t.drops[DropReason.ADMISSION]:
            out.append(f"task {task_id}: records != gate-admitted requests")
    if len({r.request_id for r in runtime.last_requests}) != len(runtime.last_requests):
        out.append("duplicate request ids")
    if any(r.dropped == (r.completed_at == r.completed_at) for r in runtime.last_requests):
        out.append("a record is both or neither of dropped / completed")
    return out


def _causality(records) -> list[str]:
    return [
        f"request {r.request_id}: {earlier} > {later}"
        for r in records
        if r.completed
        for earlier, later in zip(_STAGES, _STAGES[1:])
        if getattr(r, earlier) > getattr(r, later) + 1e-9
    ]


@given(serving_runs())
@settings(max_examples=15, deadline=None)
def test_frame_conservation(drawn):
    """No request is lost or duplicated between generation and its end."""
    runtime, metrics = _run(drawn)
    assert metrics.offered > 0
    assert _conservation(runtime, metrics) == []


@given(serving_runs())
@settings(max_examples=15, deadline=None)
def test_frame_causality(drawn):
    """Timestamps are ordered, so every latency component is >= 0."""
    runtime, _ = _run(drawn)
    assert _causality(runtime.last_requests) == []


@given(serving_runs())
@settings(max_examples=15, deadline=None)
def test_slice_fifo_order(drawn):
    """Uplink deliveries of one task never reorder (FIFO slice queue)."""
    runtime, _ = _run(drawn)
    last: dict[int, float] = {}
    for r in runtime.last_requests:  # creation order
        assert r.uplink_done_at >= last.get(r.task_id, 0.0)
        last[r.task_id] = r.uplink_done_at


@given(serving_runs())
@settings(max_examples=8, deadline=None)
def test_deterministic_given_seed(drawn):
    runs = []
    for _ in range(2):
        runtime, metrics = _run(drawn)
        runs.append((repr(metrics), [repr(r) for r in runtime.last_requests]))
    assert runs[0] == runs[1]


def test_invariants_agree_with_the_harness_copy():
    """Same records, same verdicts — ours and ``checks.py``'s — on an
    overloaded run with all three drop kinds, then with one record
    doctored."""
    path = pathlib.Path(__file__).parents[1] / "benchmarks" / "e2e" / "checks.py"
    spec = importlib.util.spec_from_file_location("e2e_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    overload = ServingConfig(
        duration_s=4.0, poisson=True, load_factor=3.0, max_batch=1,
        batch_window_s=0.25, queue_depth=1, seed=11,
    )
    runtime, metrics = _run((4, overload))
    drops = {
        reason.value: sum(t.drops[reason] for t in metrics.tasks.values())
        for reason in DropReason
    }
    gated = drops.pop("admission")
    assert gated and drops["queue_full"] and drops["deadline"] and metrics.completed

    def harness() -> list[str]:
        columns = checks.record_arrays(runtime.last_requests)
        return checks.check_conservation(
            metrics.offered, gated, drops, metrics.completed
        ) + checks.check_records(columns, metrics.offered, gated)

    assert harness() == _conservation(runtime, metrics) == []
    assert _causality(runtime.last_requests) == []
    victim = next(r for r in runtime.last_requests if r.completed)
    victim.started_at = victim.completed_at + 1.0  # breaks causality
    assert harness() and _causality(runtime.last_requests)
    victim.drop_reason = DropReason.DEADLINE  # ... and completed *and* dropped
    assert harness() and _conservation(runtime, metrics)

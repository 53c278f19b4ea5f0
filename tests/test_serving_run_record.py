"""A run's bookends read columns: metrics, creation order, global ids.

``ServingRuntime.run`` summarizes a run from the request pool's records
in the tick index's row order: one column of completion instants read
off the records, the index's task / created / deadline columns, and the
drops the run tallied where they happened
(``repro.serving.metrics.task_metrics``).  ``last_requests`` is those
records ordered by one argsort of the id column, and the ids themselves
come from a stable argsort by time that lexsorts only the tie runs
(``waves.merge_arrival_order``).  Each is held here to the per-task or
per-record form it replaced (``tests/oracles.py``): the same summaries
to the last bit, the same registry instruments, the same record order,
the same ids.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterDeployment
from repro.cluster.registry import ClusterTopology, LinkSpec, NodeSpec
from repro.core.heuristic import OffloaDNNSolver
from repro.obs.metrics import MetricsRegistry
from repro.serving import waves
from repro.serving.engine import WavePlan
from repro.serving.metrics import TaskServingMetrics, task_metrics
from repro.serving.queueing import UNSET, DropReason, ServingRequest
from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.workloads.smallscale import serving_small_scale_problem
from tests.oracles import (
    lexsort_arrival_order,
    per_task_metrics,
    records_in_creation_order,
    replicated_serving_problem,
)

#: what becomes of a record: completed (``done``), still in flight when
#: the run ended, or dropped (``stamped``: lost after a completion stamp)
FATES = ["done", "done", "done", "in_flight", "stamped", *DropReason]


def _record(task_id: int, i: int, fate, latency: float, slack: float) -> ServingRequest:
    request = ServingRequest(
        task_id=task_id, request_id=i, path=None, created_at=0.01 * i,
        deadline_at=0.01 * i + slack, bits=1.0,
    )
    if fate in ("done", "stamped"):
        request.completed_at = request.created_at + latency
    if fate == "stamped":
        request.drop_reason = DropReason.REMOTE_ERROR
    elif isinstance(fate, DropReason):
        request.drop_reason = fate
    return request


def _columns(task_ids, per_task, labels):
    """Row columns of ``per_task``'s records interleaved by ``labels``
    (the task index of each row), each task's records in their order."""
    rows, cursors = [], [0] * len(task_ids)
    for t in labels:
        rows.append((t, per_task[task_ids[t]][cursors[t]]))
        cursors[t] += 1
    drops = Counter((r.task_id, r.drop_reason) for _t, r in rows if r.dropped)
    return (
        np.array([t for t, _r in rows], dtype=np.intp),
        np.array([r.created_at for _t, r in rows], dtype=float),
        np.array([r.deadline_at for _t, r in rows], dtype=float),
        np.array([UNSET if r.dropped else r.completed_at for _t, r in rows], dtype=float),
        drops,
    )


def _instruments(registry: MetricsRegistry) -> tuple:
    return (
        repr({name: c.value for name, c in registry.counters.items()}),
        repr({name: h.samples for name, h in registry.histograms.items()}),
        repr(registry.snapshot()),
    )


def _assert_builder_matches_oracle(task_ids, per_task, gated, labels, shared: bool):
    """Two runs' worth of summaries, each way; with ``shared`` both feed a
    registry of their own that accumulates across the two."""
    registries = (MetricsRegistry(), MetricsRegistry()) if shared else (None, None)
    columns = _columns(task_ids, per_task, labels)
    for _run in range(2):
        built = task_metrics(task_ids, *columns, gated, registry=registries[0])
        expected = {
            tid: per_task_metrics(tid, per_task[tid], registries[1], gated.get(tid, 0))
            for tid in task_ids
        }
        assert repr(built) == repr(expected)
        for tid in task_ids:
            one = TaskServingMetrics.from_requests(tid, per_task[tid], gated=gated.get(tid, 0))
            assert repr(one) == repr(per_task_metrics(tid, per_task[tid], gated=gated.get(tid, 0)))
    if shared:
        assert _instruments(registries[0]) == _instruments(registries[1])


_LATENCIES = st.sampled_from([0.05, 0.1, 0.25]) | st.floats(1e-6, 2.0)
_TASK = st.tuples(
    st.lists(st.tuples(st.sampled_from(FATES), _LATENCIES), max_size=14),
    st.floats(0.0, 0.5),  # deadline slack: some completions late
    st.integers(0, 4),  # admission-shed requests with no record
)


@settings(max_examples=150, deadline=None)
@given(tasks=st.lists(_TASK, min_size=1, max_size=5), shared=st.booleans(), data=st.data())
def test_columnar_metrics_match_the_per_task_oracle(tasks, shared, data):
    task_ids = [7 + 3 * t for t in range(len(tasks))]  # not positions
    per_task, gated, labels = {}, {}, []
    for t, (fates, slack, shed) in enumerate(tasks):
        tid = task_ids[t]
        per_task[tid] = [
            _record(tid, i, fate, latency, slack) for i, (fate, latency) in enumerate(fates)
        ]
        gated[tid] = shed
        labels += [t] * len(fates)
    labels = data.draw(st.permutations(labels))
    _assert_builder_matches_oracle(task_ids, per_task, gated, labels, shared)


@pytest.mark.parametrize("shared", [False, True])
def test_columnar_metrics_match_the_oracle_on_the_edge_cases(shared):
    # p50 of 2 samples and p95 of 11 interpolate at exactly γ = 0.5,
    # where numpy's lerp switches to its second form
    assert (2 - 1) * 0.5 == 0.5 and (11 - 1) * 0.95 == 9.5
    fates = {
        1: [],  # an empty task (and one with nothing shed)
        2: [("done", 0.2)],  # n = 1
        3: [("done", 0.1), ("done", 0.3)],  # n = 2
        4: [("done", 0.01 * (i % 5) + 0.05) for i in range(11)],  # n = 11, ties
        5: [(fate, 0.1) for fate in FATES],  # every drop reason, in flight, stamped
    }
    per_task = {
        tid: [_record(tid, i, fate, latency, 0.12) for i, (fate, latency) in enumerate(rows)]
        for tid, rows in fates.items()
    }
    gated = {2: 3, 5: 1}
    task_ids = list(fates)
    labels = [t for t, tid in enumerate(task_ids) for _ in per_task[tid]]
    _assert_builder_matches_oracle(task_ids, per_task, gated, labels, shared)
    summary = task_metrics(task_ids, *_columns(task_ids, per_task, labels), gated)
    assert summary[5].drops == {reason: 1 for reason in DropReason} | {
        DropReason.ADMISSION: 2, DropReason.REMOTE_ERROR: 2
    }
    assert summary[5].completed == 3 and summary[1].latency.count == 0


# -- the run: its summary and its creation order ---------------------------


def _faulty_runtime():
    topology = ClusterTopology(
        nodes=tuple(
            NodeSpec(node_id=f"n{i}", cpu_scale=1.0 + 0.5 * i, failure_rate=0.2)
            for i in range(3)
        ),
        default_link=LinkSpec(
            src="*", dst="*", bandwidth_bps=2e8, stall_rate=0.2, stall_factor=200.0
        ),
    )
    runtime = ServingRuntime.from_problem(
        replicated_serving_problem(2),
        ServingConfig(duration_s=3.0, poisson=True, seed=1),
        solver=OffloaDNNSolver(slice_margin_rbs=10),
    )
    runtime.cluster = ClusterDeployment.place(
        runtime.problem, runtime.solution, runtime.tickets, topology
    )
    return runtime


def _overloaded_runtime():
    return ServingRuntime.from_problem(
        serving_small_scale_problem(5),
        ServingConfig(
            duration_s=6.0, poisson=True, load_factor=3.0, queue_depth=1,
            batch_window_s=0.05, max_batch=1, seed=2,
        ),
        solver=OffloaDNNSolver(slice_margin_rbs=2),
    )


@pytest.mark.parametrize("make", [_overloaded_runtime, _faulty_runtime])
def test_run_summary_and_order_match_the_per_task_oracles(make, monkeypatch):
    # every drop site tallies: queue-full victims and expiries on the
    # overloaded node, remote errors and transfer timeouts on the fabric
    plans: list[WavePlan] = []
    build = WavePlan.build.__func__

    def capture(cls, *args):
        plans.append(build(cls, *args))
        return plans[-1]

    monkeypatch.setattr(WavePlan, "build", classmethod(capture))
    runtime = make()
    metrics = runtime.run()
    records = runtime.pool.records()
    per_task = {task.task_id: [] for task in runtime.problem.tasks}
    for request in records:  # acquisition order: each task's in creation order
        per_task[request.task_id].append(request)
    assert [id(r) for r in runtime.last_requests] == [
        id(r) for r in records_in_creation_order(per_task)
    ]
    (plan,) = plans
    expected = {
        tid: per_task_metrics(tid, reqs, gated=plan.gated.get(tid, 0))
        for tid, reqs in per_task.items()
    }
    assert repr(metrics.tasks) == repr(expected)
    reasons = {reason for r in records if (reason := r.drop_reason) is not None}
    wanted = (
        {DropReason.REMOTE_ERROR, DropReason.TRANSFER_TIMEOUT}
        if runtime.cluster is not None
        else {DropReason.QUEUE_FULL, DropReason.DEADLINE}
    )
    assert wanted <= reasons


def test_metrics_cost_does_not_scale_with_tasks(monkeypatch):
    # 500 tasks, every one completing requests: a summary built task by
    # task through registry instruments makes one registry and one
    # percentile call per task; the columnar one makes neither
    calls = Counter()
    init, percentile = MetricsRegistry.__init__, np.percentile

    def counted_init(self):
        calls["registry"] += 1
        init(self)

    def counted_percentile(*args, **kwargs):
        calls["percentile"] += 1
        return percentile(*args, **kwargs)

    runtime = ServingRuntime.from_problem(
        replicated_serving_problem(100),
        ServingConfig(duration_s=1.0, batch_window_s=0.01, num_workers=100, seed=3),
        solver=OffloaDNNSolver(slice_margin_rbs=10),
    )
    monkeypatch.setattr(MetricsRegistry, "__init__", counted_init)
    monkeypatch.setattr(np, "percentile", counted_percentile)
    metrics = runtime.run()
    assert sum(t.completed > 0 for t in metrics.tasks.values()) >= 400
    assert calls["registry"] <= 2 and calls["percentile"] <= 2


# -- the global numbering --------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.integers(1, 6),  # gap in eighths of a second: exact sums
            st.booleans(),  # Poisson instead
            st.integers(0, 2**16),  # Poisson seed
        ),
        min_size=1,
        max_size=29,
    ),
    eighths=st.integers(1, 24),
)
def test_merge_matches_the_lexsort_oracle(specs, eighths):
    # deterministic tasks of different rates meet on shared instants with
    # different previous arrivals (a gap of 2/8 and one of 3/8 meet at 6/8,
    # after 4/8 and 3/8): there the previous arrival decides, not the task
    arrivals = [
        waves.arrival_times(
            8.0 / gap, eighths / 8.0, poisson, np.random.default_rng(seed)
        )
        for gap, poisson, seed in specs
    ]
    got, want = waves.merge_arrival_order(arrivals), lexsort_arrival_order(arrivals)
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def test_the_previous_arrival_orders_simultaneous_arrivals():
    # task 0 (gap 3/8) and task 1 (gap 2/8) both arrive at 6/8: task 1's
    # chain fired last at 4/8, task 0's at 3/8, so task 0 comes first;
    # at 0 both start, in task order
    arrivals = [np.arange(3) * 0.375, np.arange(4) * 0.25]
    ids = waves.merge_arrival_order(arrivals)
    assert [a.tolist() for a in ids] == [a.tolist() for a in lexsort_arrival_order(arrivals)]
    assert ids[0][2] < ids[1][3]  # both at 0.75
    arrivals = [np.arange(4) * 0.25, np.arange(3) * 0.375]  # swap the tasks
    ids = waves.merge_arrival_order(arrivals)
    assert ids[1][2] < ids[0][3]  # the previous arrival, not the position

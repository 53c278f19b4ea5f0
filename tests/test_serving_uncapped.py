"""An uncapped dispatcher decides its windows when the plan is built.

With ``max_batch=None`` every tick empties every serving queue, so a
queue is empty when a tick starts and a delivery sits in it only between
its tick's push and that same tick's drain.  What the queue stage does to
it (backpressure, expiry, the window's task-id order) is then a function
of its tick's rows, and ``WavePlan.build`` decides it in numpy; the tick
hands over the window and the drops without touching a queue.  The old
rule, every delivery pushed into its queue and popped out again, is
``tests/oracles.py::queued_ticks``: every run here is served both ways
and must give the same metrics, windows, records (stamps, drop reasons,
hops) and DES event count, and an observed run the same virtual-trace
bytes, counters, histogram samples and gauge series.
"""

from __future__ import annotations

from dataclasses import replace
from math import inf, nextafter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterDeployment, default_topology
from repro.core.heuristic import OffloaDNNSolver
from repro.obs import ObsSession, jsonl_lines
from repro.serving import waves
from repro.serving.engine import TaskWave, WavePlan
from repro.serving.pool import RequestPool
from repro.serving.queueing import DropReason, ReadyQueues, ServingQueue
from repro.serving.runtime import ServingConfig, ServingRuntime
from tests.oracles import queued_ticks, replicated_serving_problem
from tests.test_cluster_fabric import MIXED_FAULT


def _observables(runtime: ServingRuntime, observed: bool) -> dict[str, object]:
    """One run, frozen to strings (the next run recycles records), with the
    set of drop reasons it met under ``"drops"``."""
    runtime.obs = ObsSession() if observed else None
    metrics = runtime.run()
    records = [
        (
            r.task_id, r.request_id, r.created_at, r.deadline_at, r.uplink_done_at,
            r.dispatched_at, r.started_at, r.service_done_at, r.completed_at,
            r.compute_time_s, r.drop_reason, repr(r.hops),
        )
        for r in runtime.last_requests
    ]
    seen = {
        "metrics": repr(metrics),
        "windows": repr(runtime.executor.windows),
        "records": repr(records),
        "events": repr(runtime.simulator.events_processed),
        "drops": {r.drop_reason for r in runtime.last_requests} - {None},
    }
    if observed:
        registry = runtime.obs.registry
        seen.update(
            trace="\n".join(jsonl_lines([runtime.obs.virtual])),
            counters=repr({n: c.value for n, c in registry.counters.items()}),
            histograms=repr({n: h.samples for n, h in registry.histograms.items()}),
            gauges=repr({n: g.series for n, g in registry.gauges.items()}),
        )
    return seen


def _served(runtime: ServingRuntime, observed: bool, queued: bool) -> tuple[dict, int]:
    """Serve ``runtime`` (through the serving queues if ``queued``):
    (observables, ``ServingQueue.push`` / ``pop_ready`` calls)."""
    calls = [0]
    push, pop_ready = ServingQueue.push, ServingQueue.pop_ready

    def counted_push(queue, request):
        calls[0] += 1
        return push(queue, request)

    def counted_pop(queue, now):
        calls[0] += 1
        return pop_ready(queue, now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServingQueue, "push", counted_push)
        patch.setattr(ServingQueue, "pop_ready", counted_pop)
        if queued:
            queued_ticks(patch)
        seen = _observables(runtime, observed)
    return seen, calls[0]


def _assert_same_both_ways(
    runtime: ServingRuntime, observed: bool
) -> set[DropReason]:
    """Both ways equal; returns the drop reasons the run met."""
    assert runtime.config.max_batch is None
    decided, decided_calls = _served(runtime, observed, False)
    queued, queued_calls = _served(runtime, observed, True)
    assert decided.keys() == queued.keys()
    for name in decided:
        assert decided[name] == queued[name], name
    # the oracle went through the queues; the product touched none
    assert decided_calls == 0 < queued_calls
    assert runtime.executor.windows
    return decided["drops"]


@pytest.fixture(scope="module")
def replicas():
    return {k: replicated_serving_problem(k) for k in (2, 4)}


def _local(problem, **config) -> ServingRuntime:
    return ServingRuntime.from_problem(
        problem, ServingConfig(**config), solver=OffloaDNNSolver(slice_margin_rbs=2)
    )


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize("poisson", [False, True])
@pytest.mark.parametrize("num_workers", [1, 3, 40])
def test_local_pools_match_queued_ticks(replicas, num_workers, poisson, observed):
    # 20 ms windows: several requests per window, cut into several jobs
    # when there are workers for them
    for prefix_cache in (True, False):
        runtime = _local(
            replicas[4], duration_s=2.0, batch_window_s=0.02, poisson=poisson,
            num_workers=num_workers, prefix_cache=prefix_cache, seed=3,
        )
        _assert_same_both_ways(runtime, observed)


@pytest.mark.parametrize("observed", [False, True])
def test_queue_full_victims_match_queued_ticks(replicas, observed):
    # one slot per queue and 200 ms windows: a task has several rows due
    # on one tick, and every row after its first is the queue's victim
    runtime = _local(
        replicas[2], duration_s=3.0, batch_window_s=0.2, queue_depth=1,
        poisson=True, seed=3,
    )
    assert DropReason.QUEUE_FULL in _assert_same_both_ways(runtime, observed)


@pytest.mark.parametrize("observed", [False, True])
def test_expiries_match_queued_ticks(replicas, observed):
    # 100 ms windows against 200-600 ms targets: a request whose uplink
    # ate its slack expires at the tick that finds it
    runtime = _local(
        replicas[2], duration_s=3.0, batch_window_s=0.1, poisson=True, seed=3,
    )
    assert _assert_same_both_ways(runtime, observed) == {DropReason.DEADLINE}


@pytest.mark.parametrize("observed", [False, True])
def test_tasks_out_of_id_order_match_queued_ticks(replicas, observed, monkeypatch):
    # the wave position is the task's place in the problem's list, not its
    # task-id rank: a window still takes its queues in ascending task id,
    # its expiries too, while records stay in row order
    problem = replace(replicas[4], tasks=tuple(reversed(replicas[4].tasks)))
    plans: list[WavePlan] = []
    build = WavePlan.build.__func__

    def capture(cls, *args):
        plans.append(build(cls, *args))
        return plans[-1]

    monkeypatch.setattr(WavePlan, "build", classmethod(capture))
    runtime = _local(
        problem, duration_s=3.0, batch_window_s=0.2, queue_depth=1,
        poisson=True, num_workers=3, seed=5,
    )
    drops = _assert_same_both_ways(runtime, observed)
    assert drops == {DropReason.QUEUE_FULL, DropReason.DEADLINE}
    assert all(plan._unsorted for plan in plans)


def _fabric(replicas, topology, **config) -> ServingRuntime:
    runtime = ServingRuntime.from_problem(
        replicas[4], ServingConfig(poisson=True, **config),
        solver=OffloaDNNSolver(slice_margin_rbs=10),
    )
    runtime.cluster = ClusterDeployment.place(
        runtime.problem, runtime.solution, runtime.tickets, topology
    )
    return runtime


@pytest.mark.parametrize("observed", [False, True])
def test_three_node_fabric_matches_queued_ticks(replicas, observed):
    runtime = _fabric(
        replicas, default_topology(3, num_workers=2),
        duration_s=3.0, batch_window_s=0.02, seed=6,
    )
    _assert_same_both_ways(runtime, observed)
    assert runtime.cluster.plan.split_tasks > 0


@pytest.mark.parametrize("observed", [False, True])
def test_mixed_fault_fabric_matches_queued_ticks(replicas, observed):
    runtime = _fabric(replicas, MIXED_FAULT, duration_s=3.0, seed=4)
    drops = _assert_same_both_ways(runtime, observed)
    assert {DropReason.REMOTE_ERROR, DropReason.TRANSFER_TIMEOUT} <= drops


def test_a_capped_dispatcher_still_queues(replicas):
    # max_batch keeps the serving queues: a window takes at most that many
    # and the rest wait for the next tick, which no fate decided at build
    # time could know
    runtime = _local(
        replicas[2], duration_s=2.0, batch_window_s=0.05, max_batch=1, seed=3,
    )
    _, calls = _served(runtime, False, False)
    assert calls > 0


class _Path:
    """What the queue stage reads of a path."""

    def __init__(self, compute_time_s: float) -> None:
        self.compute_time_s = compute_time_s


def _edge_plan(specs, window: int, edges) -> WavePlan:
    """Waves on a 1/8 s grid (ties everywhere, several rows of a task per
    tick), task ids descending with the wave position, and each row's
    deadline ``edges[i]`` ulps from where ``now + Σc(s)`` meets
    ``deadline + 1e-12`` exactly at the row's tick (``None``: far off)."""
    arrivals = [np.arange(count) * (gap / 8.0) for gap, _air, _c, count in specs]
    ids = waves.merge_arrival_order(arrivals)
    tasks = []
    for position, (_gap, airtime, compute, count) in enumerate(specs):
        admitted = arrivals[position]
        tasks.append(
            TaskWave(
                task_id=10 - position,
                path=_Path(compute / 8.0),
                arrivals=admitted,
                ids=ids[position],
                admitted_idx=np.arange(count),
                deliveries=waves.fifo_deliveries(admitted, airtime / 8.0),
                deadlines=admitted + 100.0,
                bits=1.0,
            )
        )
    plan = WavePlan(tasks=tasks, gated={}, batch_window_s=window / 8.0)
    rows = plan._rows
    instants = np.repeat(plan._times[:-1], np.diff(plan._starts))
    for i, (instant, position) in enumerate(zip(instants, rows["position"])):
        edge = edges[i % len(edges)]
        if edge is None:
            continue
        at = float(instant) + tasks[position].path.compute_time_s
        deadline = at - 1e-12
        while deadline + 1e-12 > at:
            deadline = nextafter(deadline, -inf)
        while deadline + 1e-12 < at:
            deadline = nextafter(deadline, inf)
        assert deadline + 1e-12 == at
        for _ in range(abs(edge)):
            deadline = nextafter(deadline, edge * inf)
        rows["deadline"][i] = deadline
    return plan


def _key(requests) -> list[tuple]:
    return [
        (r.task_id, r.request_id, r.uplink_done_at, r.dispatched_at, r.drop_reason)
        for r in requests
    ]


@settings(max_examples=200, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.integers(0, 4),  # arrival gap, eighths (0: a burst at t = 0)
            st.integers(0, 4),  # uplink airtime, eighths
            st.integers(0, 3),  # path compute time, eighths
            st.integers(1, 10),  # requests
        ),
        min_size=1,
        max_size=4,
    ),
    window=st.integers(1, 4),
    depth=st.integers(1, 3),
    edges=st.lists(st.sampled_from([-1, 0, 1, None]), min_size=1, max_size=5),
)
def test_fates_match_the_queues_on_their_edges(specs, window, depth, edges):
    # a row exactly on the expiry edge is dispatched and one ulp past it
    # expires; the depth-th row of a task on a tick is queued and the next
    # is the victim; a window and its expiries run in ascending task id.
    # The plan's fates must hand each tick the same window, victims and
    # expiries, stamped alike, as pushing the tick into bounded queues and
    # draining them all
    decided = _edge_plan(specs, window, edges)
    decided._decide(depth)
    queued = _edge_plan(specs, window, edges)
    ready = ReadyQueues(
        {wave.task_id: ServingQueue(wave.task_id, depth) for wave in queued.tasks}
    )
    pools = RequestPool(), RequestPool()
    for now in decided._times[:-1]:
        window_, victims, expired = decided.push_due(now, pools[0])
        pushed: list = []
        queued.push_due(now, pools[1], lambda r: pushed.append(ready.push(r)))
        drained, dropped = ready.drain(now)
        assert _key(window_) == _key(drained)
        assert _key(victims) == _key(v for v in pushed if v is not None)
        assert _key(expired) == _key(dropped)
        assert not ready.holds_work()
    assert _key(pools[0].records()) == _key(pools[1].records())

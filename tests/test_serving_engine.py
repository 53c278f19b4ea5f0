"""Wave engine vs the scalar oracle, and the data plane's mechanics.

The wave engine's contract is not "statistically close" — it is
bit-identical to the one-event-per-request DES it replaced
(``tests/oracles.py::scalar_run``): same served set, same drop
reasons, same metrics to the last float.  These tests pin that
contract on the paper's small-scale scenario (deterministic
and Poisson arrivals, several loads and seeds, tight queues, a
one-node cluster) plus the engine's own mechanics: request pooling,
same-instant event order, rerun-determinism of traces at 10⁴
requests, and the dispatcher's ready-queue index and tick index
against the full per-tick scans they replaced (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterDeployment, default_topology
from repro.core.heuristic import OffloaDNNSolver
from repro.core.latency import uplink_tti_s
from repro.emulator.simulator import Simulator
from repro.obs import ObsSession, jsonl_lines
from repro.serving import runtime as runtime_module
from repro.serving import waves
from repro.serving.engine import TaskWave, WavePlan
from repro.serving.pool import RequestPool
from repro.serving.queueing import DropReason, ServingQueue
from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.workloads.smallscale import serving_small_scale_problem
from tests.oracles import (
    FullScanQueues,
    full_scan_next_due,
    full_scan_push_due,
    queued_ticks,
    replicated_serving_problem,
    scalar_run,
)


@pytest.fixture(scope="module")
def problem():
    return serving_small_scale_problem(5)


def _runtime(problem, **overrides):
    return ServingRuntime.from_problem(
        problem,
        ServingConfig(**overrides),
        solver=OffloaDNNSolver(slice_margin_rbs=2),
    )


def _field(value):
    # NaN != NaN would make every absent-timestamp comparison fail
    return None if value != value else value


def _metrics_key(metrics):
    return (
        metrics.duration_s,
        metrics.total_compute_s,
        metrics.compute_saved_s,
        metrics.windows,
        metrics.prefix_merges,
        {
            tid: (
                t.offered,
                t.admitted,
                t.completed,
                t.deadline_misses,
                tuple(sorted((r.value, c) for r, c in t.drops.items())),
                (
                    t.latency.count,
                    # NaN when a starved task completed nothing
                    _field(t.latency.mean_s),
                    _field(t.latency.p50_s),
                    _field(t.latency.p95_s),
                    _field(t.latency.p99_s),
                    _field(t.latency.max_s),
                ),
            )
            for tid, t in metrics.tasks.items()
        },
    )


def _served_key(runtime):
    """Every materialized (non-admission-shed) request, field by field."""
    return [
        (
            r.task_id,
            r.request_id,
            _field(r.created_at),
            _field(r.deadline_at),
            _field(r.uplink_done_at),
            _field(r.dispatched_at),
            _field(r.started_at),
            _field(r.completed_at),
            r.compute_time_s,
            r.drop_reason.value if r.drop_reason else None,
            _field(r.service_done_at),
        )
        for r in runtime.last_requests
        if r.drop_reason is not DropReason.ADMISSION
    ]


# -- bit-identity with the scalar oracle -----------------------------------


@pytest.mark.parametrize("poisson", [False, True])
@pytest.mark.parametrize("load_factor", [0.5, 2.0, 3.7])
@pytest.mark.parametrize("seed", [0, 3])
def test_engines_bit_identical_on_paper_scenario(
    problem, poisson, load_factor, seed
):
    kw = dict(duration_s=3.0, load_factor=load_factor, seed=seed, poisson=poisson)
    vec = _runtime(problem, **kw)
    ref = _runtime(problem, **kw)
    assert _metrics_key(vec.run()) == _metrics_key(scalar_run(ref))
    assert _served_key(vec) == _served_key(ref)


def test_engines_agree_under_backpressure(problem):
    # depth-2 queues force queue_full drops
    kw = dict(duration_s=3.0, load_factor=4.0, seed=1, poisson=True, queue_depth=2)
    vec = _runtime(problem, **kw)
    ref = _runtime(problem, **kw)
    assert _metrics_key(vec.run()) == _metrics_key(scalar_run(ref))
    assert _served_key(vec) == _served_key(ref)


def test_engines_agree_with_max_batch(problem):
    kw = dict(duration_s=2.0, load_factor=2.5, seed=7, max_batch=3)
    vec = _runtime(problem, **kw)
    ref = _runtime(problem, **kw)
    assert _metrics_key(vec.run()) == _metrics_key(scalar_run(ref))


def test_engines_agree_on_one_node_cluster(problem):
    results = []
    for serve in (ServingRuntime.run, scalar_run):
        runtime = _runtime(problem, duration_s=2.0, seed=0)
        runtime.cluster = ClusterDeployment.place(
            runtime.problem, runtime.solution, runtime.tickets, default_topology(1)
        )
        results.append(_metrics_key(serve(runtime)))
    assert results[0] == results[1]


def test_engines_agree_on_registry_instruments(problem):
    # counters and histogram summaries — the obs-facing numbers — match
    snapshots = []
    for serve in (ServingRuntime.run, scalar_run):
        obs = ObsSession()
        runtime = _runtime(problem, duration_s=2.0, load_factor=2.0, seed=3)
        runtime.obs = obs
        serve(runtime)
        snap = obs.registry.snapshot()
        snapshots.append((snap["counters"], snap["histograms"]))
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize("poisson", [False, True])
def test_engines_bit_identical_on_rate_matched_slices(problem, poisson):
    # without a slice margin a slice is sized at its mean rate, so the
    # uplink runs at rho = 1 and Poisson arrivals queue on it.  Nothing is
    # shed at the gate, so even the trace bytes are the oracle's.
    results = []
    for serve in (ServingRuntime.run, scalar_run):
        runtime = ServingRuntime.from_problem(
            problem,
            ServingConfig(duration_s=4.0, poisson=poisson, seed=5),
            solver=OffloaDNNSolver(),
        )
        runtime.obs = ObsSession()
        metrics = _metrics_key(serve(runtime))
        results.append((metrics, _served_key(runtime), jsonl_lines([runtime.obs.virtual])))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "case", ["poisson", "deterministic", "shallow queues", "three nodes"]
)
def test_each_queue_sees_deadlines_in_arrival_order(case):
    # a serving queue is FIFO, and FIFO is the earliest-deadline-first
    # order only because each queue holds one task, whose requests reach
    # it in uplink order (one FIFO slice) with deadline created + L_τ.
    # Pin that premise: per task, in (uplink done, request id) order, the
    # deadlines never fall.  100 tasks at 3x load through a throttled
    # dispatcher (serve_overload's shape, 2 s)
    kw = dict(
        duration_s=2.0, load_factor=3.0, max_batch=4, batch_window_s=0.01,
        queue_depth=2 if case == "shallow queues" else 8, seed=3,
        poisson=case != "deterministic",
    )
    runtime = _runtime(replicated_serving_problem(20), **kw)
    if case == "three nodes":
        runtime.cluster = ClusterDeployment.place(
            runtime.problem, runtime.solution, runtime.tickets, default_topology(3)
        )
    runtime.run()
    queued: dict[int, list] = {}
    for r in runtime.last_requests:
        if r.uplink_done_at == r.uplink_done_at:  # reached its queue
            queued.setdefault(r.task_id, []).append(r)
    assert len(queued) == sum(t.admitted for t in runtime.tickets.values())
    for requests in queued.values():
        requests.sort(key=lambda r: (r.uplink_done_at, r.request_id))
        deadlines = [r.deadline_at for r in requests]
        assert deadlines == sorted(deadlines)
    # the queues held backlogs (what an order could act on), and the
    # shallow ones overflowed
    drops = {r.drop_reason for r in runtime.last_requests}
    assert DropReason.DEADLINE in drops
    if case == "shallow queues":
        assert DropReason.QUEUE_FULL in drops


# -- determinism under pooling --------------------------------------------


def test_trace_jsonl_byte_identical_across_reruns_at_1e4(problem):
    # ~10⁴ offered requests with admission shedding, queue pressure and
    # recycled records: the virtual-domain trace must not move
    lines = []
    for _ in range(2):
        obs = ObsSession()
        runtime = _runtime(
            problem,
            duration_s=10.0,
            load_factor=40.0,
            poisson=True,
            seed=3,
        )
        runtime.obs = obs
        metrics = runtime.run()
        assert metrics.offered >= 10_000
        lines.append(jsonl_lines([obs.virtual]))
    assert lines[0] == lines[1]


def test_same_runtime_rerun_is_bit_stable(problem):
    # the pool recycles records between runs on the same runtime object
    runtime = _runtime(problem, duration_s=2.0, load_factor=2.0)
    first_metrics = _metrics_key(runtime.run())
    first_served = _served_key(runtime)
    assert _metrics_key(runtime.run()) == first_metrics
    assert _served_key(runtime) == first_served
    # steady state: the second run allocated nothing new
    assert runtime.pool.in_use <= len(runtime.pool)


def test_simulator_keeps_same_instant_event_order():
    # same-timestamp events fire in insertion order, round after round
    sim = Simulator()
    fired: list[str] = []
    for round_id in range(3):
        for k in range(4):
            sim.schedule_at(
                float(round_id),
                lambda r=round_id, k=k: fired.append(f"{r}:{k}"),
            )
    sim.run()
    assert fired == [f"{r}:{k}" for r in range(3) for k in range(4)]


def test_request_pool_resets_every_field(problem):
    path = problem.catalog.paths_for(problem.tasks[0])[0]
    pool = RequestPool()
    first = pool.acquire(1, 2, path, 0.0, 1.0, 5.0, 0.25)
    mate = pool.acquire(1, 3, path, 0.0, 1.0, 5.0, 0.25)
    first.drop_reason = DropReason.DEADLINE
    first.completed_at = 0.7
    # batch-mates of a cluster run share one hop list
    shared = ["stale"]
    first.hops = mate.hops = shared
    pool.reset()
    again = pool.acquire(3, 4, path, 0.5, 2.0, 6.0, 0.75)
    assert again is first  # recycled, not reallocated
    assert again.task_id == 3 and again.request_id == 4 and again.uplink_done_at == 0.75
    assert again.drop_reason is None and again.hops is None
    assert again.completed_at != again.completed_at  # NaN
    assert pool.acquire(3, 5, path, 0.5, 2.0, 6.0, 0.75) is mate and mate.hops is None
    # the list itself is left as it was: a reader of the last run keeps it
    assert shared == ["stale"]


# -- sorted-index regression (satellite S1) --------------------------------


def test_dispatch_order_matches_sorted_queue_ids(problem):
    # dispatched requests of one window are ordered by task id: the
    # prebuilt ordered index must behave exactly like per-window sorted()
    runtime = _runtime(problem, duration_s=1.0, load_factor=1.5)
    runtime.run()
    by_window: dict[float, list[int]] = {}
    for r in runtime.last_requests:
        if r.dispatched_at == r.dispatched_at:
            by_window.setdefault(r.dispatched_at, []).append(r.task_id)
    assert by_window, "run dispatched nothing"
    for tasks in by_window.values():
        assert tasks == sorted(tasks)


def test_summary_rows_order_and_cache(problem):
    runtime = _runtime(problem, duration_s=1.0)
    metrics = runtime.run()
    rows = metrics.summary_rows()
    assert [row[0] for row in rows] == sorted(metrics.tasks)
    # cached order is reused, and recomputed if the task set changes
    assert metrics.task_order() is metrics.task_order()
    import dataclasses

    extra = dataclasses.replace(metrics.tasks[rows[0][0]], task_id=999)
    metrics.tasks[999] = extra
    assert metrics.task_order()[-1] == 999


# -- O(work) dispatcher ticks: indexes vs the full scans they replaced ------


@pytest.fixture(scope="module")
def sparse_problem():
    # 200 tasks, each a sparse stream: most queues and waves have
    # nothing to do on most 2 ms ticks
    return replicated_serving_problem(40)


def _traced_run(problem, serve=ServingRuntime.run, **overrides):
    runtime = _runtime(
        problem, duration_s=2.0, batch_window_s=0.002, num_workers=40, seed=2,
        **overrides,
    )
    runtime.obs = ObsSession()
    metrics = serve(runtime)
    return (
        _metrics_key(metrics),
        _served_key(runtime),
        jsonl_lines([runtime.obs.virtual]),
    )


@pytest.mark.parametrize("poisson", [False, True])
@pytest.mark.parametrize("max_batch", [None, 2])
def test_sparse_many_task_run_matches_scalar_and_full_scan(
    sparse_problem, poisson, max_batch, monkeypatch
):
    kw = dict(poisson=poisson, max_batch=max_batch)
    metrics, served, trace = _traced_run(sparse_problem, **kw)
    assert len(served) > 1500
    assert _traced_run(sparse_problem, **kw)[2] == trace
    ref_metrics, ref_served, ref_trace = _traced_run(
        sparse_problem, scalar_run, **kw
    )
    # trace bytes differ from the oracle's by design (shed events in bulk)
    assert (metrics, served) == (ref_metrics, ref_served)
    # both driven by the old scans, through the serving queues: same bytes,
    # engine and oracle
    queued_ticks(monkeypatch)
    monkeypatch.setattr(runtime_module, "ReadyQueues", FullScanQueues)
    monkeypatch.setattr(WavePlan, "push_due", full_scan_push_due)
    monkeypatch.setattr(WavePlan, "next_due", full_scan_next_due)
    assert _traced_run(sparse_problem, **kw) == (metrics, served, trace)
    assert _traced_run(sparse_problem, scalar_run, **kw)[2] == ref_trace


def _capture_plans(monkeypatch) -> list[WavePlan]:
    """Every plan ``WavePlan.build`` hands a run, as it is built."""
    plans: list[WavePlan] = []
    build = WavePlan.build.__func__

    def capture(cls, *args):
        plans.append(build(cls, *args))
        return plans[-1]

    monkeypatch.setattr(WavePlan, "build", classmethod(capture))
    return plans


def _tick_of(plan: WavePlan, request_id: int) -> float:
    """Instant of the tick the index assigned a request to."""
    instants = np.repeat(plan._times[:-1], np.diff(plan._starts))
    (row,) = np.flatnonzero(plan._rows["id"] == request_id)
    return float(instants[row])


@pytest.mark.parametrize("windows_per_airtime", [1, 2])
def test_deliveries_landing_exactly_on_ticks(
    problem, windows_per_airtime, monkeypatch
):
    # deterministic arrivals start at t = 0, so a window that divides a
    # task's uplink airtime puts its first delivery exactly on a tick.
    # One window per airtime: the arrive event was scheduled after the
    # tick (both during setup) and loses — the index, at build time, hands
    # the delivery to the next tick.  Two windows: the emit (t = 0)
    # precedes the previous tick, the delivery wins and joins its own tick.
    base = _runtime(problem, duration_s=1.0)
    task = next(t for t in problem.tasks if base.tickets[t.task_id].admitted)
    path = base.solution.assignment(task).path
    airtime = uplink_tti_s(
        path.bits_per_image,
        problem.radio.bits_per_rb(task),
        base.tickets[task.task_id].radio_blocks,
    )
    window = airtime / windows_per_airtime
    plans = _capture_plans(monkeypatch)
    vec = base.with_config(batch_window_s=window)
    ref = base.with_config(batch_window_s=window)
    assert _metrics_key(vec.run()) == _metrics_key(scalar_run(ref))
    assert _served_key(vec) == _served_key(ref)
    first = next(r for r in vec.last_requests if r.task_id == task.task_id)
    assert first.uplink_done_at == airtime == window * windows_per_airtime
    joined = airtime if windows_per_airtime == 2 else airtime + window
    (plan,) = plans
    assert _tick_of(plan, first.request_id) == joined


def _grid_plan(specs, window: int) -> WavePlan:
    """Waves on a 1/8 s grid: every sum is exact, so ties are everywhere."""
    arrivals = [np.arange(count) * (gap / 8.0) for gap, _air, count, _every in specs]
    ids = waves.merge_arrival_order(arrivals)
    tasks = []
    for position, (_gap, airtime, count, every) in enumerate(specs):
        admitted_idx = np.arange(count)[::every]
        admitted = arrivals[position][admitted_idx]
        tasks.append(
            TaskWave(
                task_id=10 - position,  # wave order is not task-id order
                path=None,
                arrivals=arrivals[position],
                ids=ids[position],
                admitted_idx=admitted_idx,
                deliveries=waves.fifo_deliveries(admitted, airtime / 8.0),
                deadlines=admitted + 1.0,
                bits=1.0,
            )
        )
    return WavePlan(tasks=tasks, gated={}, batch_window_s=window / 8.0)


@settings(max_examples=200, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.integers(0, 6),  # arrival gap, eighths (0: a burst at t = 0)
            st.integers(0, 6),  # uplink airtime, eighths
            st.integers(1, 12),  # offered requests (a wave starts at t = 0)
            st.integers(1, 3),  # gate admits every n-th
        ),
        min_size=1,
        max_size=6,
    ),
    window=st.integers(1, 5),
)
def test_due_index_matches_full_scan_under_exact_ties(specs, window):
    # deliveries landing exactly on ticks, winning and losing the scalar
    # tie-break, several per tick and per wave: the tick index, which
    # settled every tie when it was built, must hand over the same
    # requests on the same ticks, wave by wave, as the scan that settles
    # them as the ticks fire (with its own tick record and cursors)
    logs = []
    for push_due in (WavePlan.push_due, full_scan_push_due):
        plan, pool, log = _grid_plan(specs, window), RequestPool(), []
        for tick in range(1, 100 // window):
            now = tick * (window / 8.0)
            push_due(
                plan,
                now,
                pool,
                lambda r: log.append(
                    (now, r.task_id, r.request_id, r.created_at, r.deadline_at, r.uplink_done_at)
                ),
            )
        assert pool.in_use == sum(wave.admitted for wave in plan.tasks)
        logs.append(log)
    assert logs[0] == logs[1]


def test_push_due_refuses_a_tick_off_its_grid():
    # the index is only as good as the grid it was built on: a dispatcher
    # that skips past a tick with deliveries must fail, not serve them late
    plan = _grid_plan([(1, 1, 4, 1)], window=1)
    with pytest.raises(RuntimeError, match="skipped the tick"):
        plan.push_due(3.0, RequestPool(), lambda r: None)


class _CountedSlices(np.ndarray):
    """The packed tick index, counting how often it is sliced."""

    def __getitem__(self, key):
        self.slices[0] += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("max_batch", [None, 2])
def test_dispatcher_cost_follows_requests_not_tasks(
    sparse_problem, max_batch, monkeypatch
):
    # no wall clock: a reintroduced per-tick scan over 200 tasks makes
    # ~10^5 queue pops here, and per-tick searches, per-wave slices of
    # the deliveries or per-column slices of the index show up in the
    # counts below.  An uncapped dispatcher touches no queue at all: the
    # plan decided every row's fate when it was built
    counts = {"pushes": 0, "pops": 0, "searches": 0, "ticks": 0, "acquired": 0}
    slices = [0]
    tick_slices = [0]  # the slices taken inside ticks
    push, pop_ready = ServingQueue.push, ServingQueue.pop_ready
    acquire = RequestPool.acquire
    searchsorted, push_due = np.searchsorted, WavePlan.push_due
    built: list[tuple[WavePlan, int]] = []

    def counted_push(self, request):
        counts["pushes"] += 1
        return push(self, request)

    def counted_pop(self, now):
        counts["pops"] += 1
        return pop_ready(self, now)

    def counted_search(*args, **kwargs):
        counts["searches"] += 1
        return searchsorted(*args, **kwargs)

    def counted_acquire(self, *args, **kwargs):
        counts["acquired"] += 1
        return acquire(self, *args, **kwargs)

    def counted_tick(self, *args):
        if not counts["ticks"]:
            self._rows = self._rows.view(_CountedSlices)
            self._rows.slices = slices
            built.append((self, counts["searches"]))
        counts["ticks"] += 1
        before = slices[0]
        due = push_due(self, *args)
        tick_slices[0] += slices[0] - before
        return due

    monkeypatch.setattr(ServingQueue, "push", counted_push)
    monkeypatch.setattr(ServingQueue, "pop_ready", counted_pop)
    monkeypatch.setattr(np, "searchsorted", counted_search)
    monkeypatch.setattr(RequestPool, "acquire", counted_acquire)
    monkeypatch.setattr(WavePlan, "push_due", counted_tick)
    runtime = _runtime(
        sparse_problem, duration_s=2.0, batch_window_s=0.002, num_workers=40,
        poisson=True, seed=2, max_batch=max_batch,
    )
    metrics = runtime.run()
    admitted = sum(t.admitted for t in metrics.tasks.values())
    assert admitted > 1500 and counts["ticks"] * len(metrics.tasks) > 50 * admitted
    if max_batch is None:
        assert counts["pushes"] == counts["pops"] == 0
    else:
        # each pop dispatches a request or expires the rest of a queue
        assert counts["pushes"] == admitted and counts["pops"] <= admitted
    ((plan, searches_by_first_tick),) = built
    # everything is looked up before the first tick; a tick with something
    # due takes one slice of the packed rows, an empty one none
    assert searches_by_first_tick >= 1
    assert counts["searches"] == searches_by_first_tick
    busy_ticks = len(plan._times) - 1
    assert busy_ticks <= admitted and 0 < tick_slices[0] <= busy_ticks
    assert counts["acquired"] == admitted

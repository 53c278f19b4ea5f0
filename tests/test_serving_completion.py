"""A window's completion is a stamp, and nothing observable moves.

The executor that books a request's job (cluster: its last segment)
stamps ``completed_at = finish + result_return_s`` there, the fabric
tallies a batch it loses mid-execution where it drops it, and an
unobserved run schedules no event per window: it keeps running until the
last result is back (``_Run.last_done``).  The old rule, one completion
event per window that stamps, tallies and holds its requests outstanding
until it fires, is ``tests/oracles.py::completion_events``: every run
here is served both ways and must give the same metrics, windows and
records (stamps, drop reasons, hops), and an observed run the same
virtual-trace bytes, counters, histogram samples and gauge series.
"""

from __future__ import annotations

import pytest

import repro.serving.executor as executor_module
from repro.cluster import ClusterDeployment, default_topology
from repro.core.heuristic import OffloaDNNSolver
from repro.obs import ObsSession, jsonl_lines
from repro.serving.queueing import DropReason
from repro.serving.runtime import ServingConfig, ServingRuntime, _Run
from tests.oracles import completion_events, replicated_serving_problem
from tests.test_cluster_fabric import MIXED_FAULT


def _observables(runtime: ServingRuntime, observed: bool) -> dict[str, str]:
    """One run, frozen to strings (the next run recycles records)."""
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


def _ticks_and_events(runtime: ServingRuntime, observed: bool, oracle: bool) -> tuple:
    """Serve ``runtime`` (by the oracle's completion events if ``oracle``),
    counting dispatcher ticks: (observables, ticks, events)."""
    ticks = []
    tick = _Run.tick

    def counted(run: _Run) -> None:
        ticks.append(run.sim.now)
        tick(run)

    with pytest.MonkeyPatch.context() as counting:
        counting.setattr(_Run, "tick", counted)
        if oracle:
            completion_events(counting)
        seen = _observables(runtime, observed)
    return seen, len(ticks), runtime.simulator.events_processed


def _assert_same_both_ways(runtime: ServingRuntime, observed: bool) -> dict:
    stamped, ticks, events = _ticks_and_events(runtime, observed, False)
    evented, oracle_ticks, oracle_events = _ticks_and_events(runtime, observed, True)
    assert stamped.keys() == evented.keys()
    for name in stamped:
        assert stamped[name] == evented[name], name
    assert ticks == oracle_ticks
    windows = len(runtime.executor.windows)
    assert windows > 0
    if observed:
        # one completion event per window stays, so the trace can be emitted
        assert events == oracle_events
    else:
        # every event is a tick; the oracle also ran one per window
        assert events == ticks
        assert oracle_events == ticks + windows
    return stamped


@pytest.fixture(scope="module")
def replicas():
    return {k: replicated_serving_problem(k) for k in (2, 4)}


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize("poisson", [False, True])
def test_local_grid_matches_completion_events(replicas, poisson, observed):
    # 20 ms windows: several requests per window, cut into several jobs
    # when there are workers for them, so requests of one window complete
    # at different instants
    for num_workers in (1, 2, 3):
        for prefix_cache in (True, False):
            for max_batch in (None, 4):
                config = ServingConfig(
                    duration_s=3.0, batch_window_s=0.02, poisson=poisson,
                    num_workers=num_workers, prefix_cache=prefix_cache,
                    max_batch=max_batch, seed=3,
                )
                _assert_same_both_ways(
                    ServingRuntime.from_problem(
                        replicas[4], config, solver=OffloaDNNSolver(slice_margin_rbs=2)
                    ),
                    observed,
                )


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
def test_three_node_fabric_matches_completion_events(replicas, observed):
    runtime = _fabric(
        replicas, default_topology(3, num_workers=2),
        duration_s=4.0, batch_window_s=0.02, seed=6,
    )
    _assert_same_both_ways(runtime, observed)
    assert runtime.cluster.plan.split_tasks > 0


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize("seed", [1, 4])
def test_mixed_fault_fabric_matches_completion_events(replicas, seed, observed):
    # batches lost mid-execution are tallied where the fabric drops them,
    # not when their window's completion event fires
    runtime = _fabric(replicas, MIXED_FAULT, duration_s=3.0, seed=seed)
    _assert_same_both_ways(runtime, observed)
    lost = {r.drop_reason for r in runtime.last_requests}
    assert {DropReason.REMOTE_ERROR, DropReason.TRANSFER_TIMEOUT} <= lost


def _backlogged(replicas) -> ServingRuntime:
    # one worker for four replicas' traffic: every request is dispatched
    # soon after it is delivered, and the worker's backlog runs on long
    # after the last dispatch
    config = ServingConfig(
        duration_s=2.0, batch_window_s=0.01, poisson=True, num_workers=1, seed=2
    )
    return ServingRuntime.from_problem(
        replicas[4], config, solver=OffloaDNNSolver(slice_margin_rbs=10)
    )


@pytest.mark.parametrize("observed", [False, True])
def test_a_run_lasts_until_its_last_result_is_back(replicas, observed):
    runtime = _backlogged(replicas)
    seen = _assert_same_both_ways(runtime, observed)
    runtime.obs = None  # the stamped run, again
    metrics, records = runtime.run(), runtime.last_requests
    assert repr(metrics) == seen["metrics"]
    last_dispatch = max(
        r.dispatched_at for r in records if r.dispatched_at == r.dispatched_at
    )
    last_back = max(r.completed_at for r in records if r.completed)
    # the tail is the results', not the dispatcher's: nothing is left to
    # dispatch for seconds while the worker drains its backlog
    assert last_back > last_dispatch + 1.0
    assert last_back > runtime.config.duration_s
    # the run's clock stops on the first tick at or after the last result
    assert 0.0 <= metrics.duration_s - last_back < runtime.config.batch_window_s * 1.001


@pytest.mark.parametrize("observed", [False, True])
def test_a_result_back_the_instant_it_left_keeps_that_tick_live(
    replicas, observed, monkeypatch
):
    # every job free and no return time: a window's results are back at
    # the tick that dispatched it.  Its completion event fired after that
    # tick, which therefore armed one more; the last tick must still do so
    monkeypatch.setattr(executor_module, "_window_costs", lambda groups: (0.0, 0.0, 0))
    config = ServingConfig(
        duration_s=1.0, batch_window_s=0.01, poisson=True, result_return_s=0.0, seed=1
    )
    runtime = ServingRuntime.from_problem(
        replicas[2], config, solver=OffloaDNNSolver(slice_margin_rbs=10)
    )
    _assert_same_both_ways(runtime, observed)
    records = runtime.last_requests
    last_dispatch = max(
        r.dispatched_at for r in records if r.dispatched_at == r.dispatched_at
    )
    assert last_dispatch > config.duration_s
    assert all(r.completed_at == r.dispatched_at for r in records if r.completed)
    # one tick past the last dispatch, as when the event held the run live
    metrics = runtime.run()
    assert metrics.duration_s == pytest.approx(last_dispatch + config.batch_window_s)

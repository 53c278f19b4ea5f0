"""The dispatcher sleeps through idle windows, and nothing observable moves.

``_Run.tick`` schedules the next tick one window later only while a
serving queue holds work or no delivery is left; otherwise it sleeps to
the plan's next due tick (``WavePlan.next_due``), in the place among
same-instant events the skipped chain would have given it
(``Simulator.schedule_as_of``).  The old rule, a tick every window, is
``tests/oracles.py::every_window_tick``: every run here is served both
ways and must give the same metrics, windows, served records (stamp by
stamp, hops included), virtual-trace bytes and registry instruments
(counters, histogram samples, sampled gauge series).
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterDeployment
from repro.cluster.registry import ClusterTopology, LinkSpec, NodeSpec
from repro.core.heuristic import OffloaDNNSolver
from repro.obs import ObsSession, jsonl_lines
from repro.serving import fig11_runtime
from repro.serving.queueing import ServingQueue
from repro.serving.runtime import ServingConfig, ServingRuntime, _Run
from tests.oracles import every_window_tick, replicated_serving_problem


def _observables(runtime: ServingRuntime) -> dict[str, str]:
    """One observed run, frozen to strings (the next run recycles records)."""
    obs = runtime.obs = ObsSession()
    metrics = runtime.run()
    records = [
        (
            r.task_id, r.request_id, r.created_at, r.deadline_at, r.uplink_done_at,
            r.dispatched_at, r.started_at, r.service_done_at, r.completed_at,
            r.compute_time_s, r.drop_reason, r.hops,
        )
        for r in runtime.last_requests
    ]
    registry = obs.registry
    return {
        "metrics": repr(metrics),
        "windows": repr(runtime.executor.windows),
        "records": repr(records),
        "trace": "\n".join(jsonl_lines([obs.virtual])),
        "counters": repr({n: c.value for n, c in registry.counters.items()}),
        "histograms": repr({n: h.samples for n, h in registry.histograms.items()}),
        "gauges": repr({n: g.series for n, g in registry.gauges.items()}),
    }


def _assert_same_both_ways(runtime: ServingRuntime) -> None:
    sleeping = _observables(runtime)
    slept = runtime.simulator.events_processed
    pushes = [0]
    push = ServingQueue.push

    def counted_push(queue, request):
        pushes[0] += 1
        return push(queue, request)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Run, "tick", every_window_tick)
        patch.setattr(ServingQueue, "push", counted_push)
        stepping = _observables(runtime)
    for name in sleeping:
        assert sleeping[name] == stepping[name], name
    # the old rule goes through the serving queues, capped or not, so an
    # uncapped run compares the plan's fates with the queues' decisions
    assert pushes[0] > 0
    # the sleep happened: fewer events than one tick per window
    assert slept < runtime.simulator.events_processed


@pytest.fixture(scope="module")
def replicas():
    return {k: replicated_serving_problem(k) for k in (2, 4)}


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("poisson", [False, True])
def test_local_grid_matches_every_window_ticks(replicas, k, poisson):
    # 20 ms windows: max_batch 4 binds often enough that ticks with work
    # left in a queue (one window later) mix with sleeping ones
    for num_workers in (1, 2, 3):
        for prefix_cache in (True, False):
            for max_batch in (None, 4):
                config = ServingConfig(
                    duration_s=4.0, batch_window_s=0.02, poisson=poisson,
                    num_workers=num_workers, prefix_cache=prefix_cache,
                    max_batch=max_batch, seed=3,
                )
                _assert_same_both_ways(
                    ServingRuntime.from_problem(
                        replicas[k], config, solver=OffloaDNNSolver(slice_margin_rbs=2)
                    )
                )


@pytest.mark.parametrize("seed", [0, 1])
def test_faulty_fabric_matches_every_window_ticks(replicas, seed):
    # every dispatch and transfer a seeded draw: a tick that moved would
    # move the draws with it
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
        replicas[2], ServingConfig(duration_s=3.0, poisson=True, seed=seed),
        solver=OffloaDNNSolver(slice_margin_rbs=10),
    )
    runtime.cluster = ClusterDeployment.place(
        runtime.problem, runtime.solution, runtime.tickets, topology
    )
    _assert_same_both_ways(runtime)


def test_fig11_matches_every_window_ticks():
    _assert_same_both_ways(fig11_runtime(5, 20.0))


def test_gauges_sampled_on_a_due_tick_match_every_window_ticks(replicas):
    # the 50 ms sampler and the 10 ms tick grid meet three times a minute
    # (at 0.05, 18.75 and 45.25 s); here a window is due at 18.75 s after
    # a 130 ms sleep.  The every-window tick there was scheduled at
    # 18.74 s, after the sampler (at 18.70 s): the sampler reads first.
    # A sleeping tick ordered by its own, earlier schedule call would fire
    # first, and the sampled window count and busy workers would move.
    config = ServingConfig(
        duration_s=60.0, batch_window_s=0.01, load_factor=0.3, poisson=True, seed=4
    )
    runtime = ServingRuntime.from_problem(
        replicas[2], config, solver=OffloaDNNSolver(slice_margin_rbs=2)
    )
    _assert_same_both_ways(runtime)
    # the case is live: a window left at a sampled instant after the
    # dispatcher slept past the sample before it
    period = runtime.obs.sample_period_s
    sampled = {t for t, _ in runtime.obs.registry.gauges["serving.outstanding"].series}
    dispatched = sorted(
        {r.dispatched_at for r in runtime.last_requests if r.dispatched_at == r.dispatched_at}
    )
    assert any(
        at in sampled and at - before > period
        for before, at in zip(dispatched, dispatched[1:])
    )

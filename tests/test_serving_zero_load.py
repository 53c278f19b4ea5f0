"""Zero-load phases: a request that waits for nothing costs what the model says.

A request that is first on its slice (the task's previous frame has left
it), alone in its job and started on an idle worker meets no other
request anywhere.  Its phases must then be the latency model's terms and
nothing else: the TTI-granular uplink of ``repro.core.latency`` at the
solved slice, at most one batching window to the dispatcher tick, the
batch law's charge for a batch of one, and the result return.  Every
admitted task of every scenario must show at least one such request.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import pytest

from repro.core.latency import uplink_tti_s
from repro.serving import ServingConfig, ServingRuntime
from repro.serving import executor as executor_module
from repro.serving.executor import _window_costs
from repro.workloads.largescale import RequestRate, large_scale_problem
from repro.workloads.smallscale import serving_small_scale_problem, small_scale_problem

SCENARIOS = {
    "serving_small_scale": partial(serving_small_scale_problem, 5),
    "small_scale": partial(small_scale_problem, 5),
    **{
        f"large_scale_{rate.label}": partial(large_scale_problem, rate)
        for rate in RequestRate
    },
}

#: the dispatcher period of every run here
WINDOW_S = 0.002


def _waited_for_nothing(runtime, monkeypatch) -> list:
    """Run ``runtime``; the requests first on their slice, alone in their
    job and started on an idle worker."""
    jobs = []
    cut_window = executor_module.cut_window

    def spy(*args):
        made = cut_window(*args)
        jobs.extend(made)
        return made

    with monkeypatch.context() as patched:
        patched.setattr(executor_module, "cut_window", spy)
        runtime.run()
    alone = {id(job.members[0]) for job in jobs if len(job.members) == 1}
    slice_free_at: dict[int, float] = {}
    found = []
    for request in runtime.last_requests:  # in creation order
        if request.uplink_done_at != request.uplink_done_at:
            continue  # shed at the admission gate: never on the slice
        first_on_slice = slice_free_at.get(request.task_id, 0.0) <= request.created_at
        slice_free_at[request.task_id] = request.uplink_done_at
        idle_worker = request.started_at == request.dispatched_at
        if first_on_slice and id(request) in alone and idle_worker:
            found.append(request)
    return found


def _assert_priced_by_the_model(runtime, request) -> None:
    problem = runtime.problem
    task = next(t for t in problem.tasks if t.task_id == request.task_id)
    assignment = runtime.solution.assignment(task)
    path = assignment.path
    airtime = uplink_tti_s(
        path.bits_per_image, problem.radio.bits_per_rb(task), assignment.radio_blocks
    )
    assert request.uplink_done_at == request.created_at + airtime
    assert 0.0 <= request.dispatched_at - request.uplink_done_at < WINDOW_S
    (charge, _unmerged, _merges) = _window_costs([(path.path_id, path.blocks, 1)])
    assert request.service_done_at == request.started_at + charge
    result_return_s = runtime.config.result_return_s
    assert request.completed_at == request.service_done_at + result_return_s


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_requests_that_wait_for_nothing_are_priced_by_the_latency_model(
    scenario, monkeypatch
):
    problem = SCENARIOS[scenario]()
    config = ServingConfig(
        duration_s=2.0,
        batch_window_s=WINDOW_S,
        poisson=False,
        num_workers=len(problem.tasks),
        seed=1,
    )
    runtime = ServingRuntime.from_problem(problem, config)
    for request in _waited_for_nothing(runtime, monkeypatch):
        _assert_priced_by_the_model(runtime, request)

    # deterministic streams of equal rate and airtime deliver together
    # and fuse into one job for the whole run: each admitted task is
    # also served on its own, where its requests meet no other task's
    admitted = [tid for tid, ticket in runtime.tickets.items() if ticket.admitted]
    assert admitted
    for task_id in admitted:
        tickets = {
            tid: ticket if tid == task_id else replace(ticket, admitted=False)
            for tid, ticket in runtime.tickets.items()
        }
        solo = replace(runtime, tickets=tickets)
        found = _waited_for_nothing(solo, monkeypatch)
        assert found, f"task {task_id}: every request waited"
        for request in found:
            _assert_priced_by_the_model(solo, request)

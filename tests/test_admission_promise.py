"""The admission promise in serving: an admitted task gets its ``L_τ``.

The solver admits a task because its path and slice meet constraint (1g)
on paper.  This gate serves the harness's capacity-scaled deployment
(``benchmarks/e2e/workloads.py``: the five-task serving scenario × k,
k workers, 2 ms windows, load 1.0, ``slice_margin_rbs=10``) and holds the
dispatcher to that promise: whatever batch law the blocks carry (0.5,
the engine-wide default, serial), and whether
arrivals are spread (Poisson) or land on the same instants
(deterministic: k replicas of a task fire together), at least 99 % of
every admitted task's completed requests are on time, and no request is
late that reached the dispatcher with its own compute time of slack.
The same holds with the deployment on a one-node cluster fabric of k
workers: its hop-0 groups are cut by the same rule.

Before windows were cut into jobs (one fused job per window on one
worker) the same runs read: k = 20 Poisson task 1 0.974 on time (0.953
under a batch law of 1.0); k = 5 deterministic task 2 0.0 (tasks 1–4 at
1.0); k = 20 and k = 100 deterministic every task 0.0.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterDeployment, default_topology
from repro.core.catalog import DEFAULT_BATCH_MARGINAL
from repro.core.heuristic import OffloaDNNSolver
from repro.serving import ServingConfig, ServingRuntime
from repro.serving.queueing import DropReason
from tests.oracles import replicated_serving_problem, with_batch_marginal

BASE_TASKS = 5
#: deadline drops at the queue (decided before dispatch) when the gate was
#: written; the dispatcher must not push work back into them
DEADLINE_DROPS = {(20, True): 63, (5, False): 0, (20, False): 0,
                  (100, True): 366, (100, False): 0}


@pytest.mark.parametrize("batch_marginal", [0.5, DEFAULT_BATCH_MARGINAL, 1.0])
@pytest.mark.parametrize(
    "k, poisson",
    [
        (20, True),
        (5, False),
        (20, False),
        pytest.param(100, True, marks=pytest.mark.slow),
        pytest.param(100, False, marks=pytest.mark.slow),
    ],
)
def test_admitted_tasks_are_served_on_time(k, poisson, batch_marginal):
    problem = with_batch_marginal(replicated_serving_problem(k), batch_marginal)
    _assert_promise_kept(_runtime(k, poisson, problem), k, poisson)


def test_admitted_tasks_are_served_on_time_on_a_one_node_fabric():
    # the promise is the dispatcher's, not the executor class's: the same
    # deployment on one fabric node of k workers.  When the fabric booked
    # each node's hop-0 group as one fused job it read 0.965 / 0.989 /
    # 0.992 / 0.993 / 0.993 on time with 202 late (the local executor: 6)
    k = 20
    runtime = _runtime(k, True, replicated_serving_problem(k))
    runtime.cluster = ClusterDeployment.place(
        runtime.problem, runtime.solution, runtime.tickets,
        default_topology(1, num_workers=k),
    )
    _assert_promise_kept(runtime, k, True)


def _runtime(k: int, poisson: bool, problem) -> ServingRuntime:
    """The harness's capacity-scaled deployment: k workers, 2 ms windows."""
    config = ServingConfig(
        duration_s=30.0, batch_window_s=0.002, num_workers=k, poisson=poisson,
        seed=3,
    )
    return ServingRuntime.from_problem(
        problem, config, solver=OffloaDNNSolver(slice_margin_rbs=10)
    )


def _assert_promise_kept(runtime: ServingRuntime, k: int, poisson: bool) -> None:
    config = runtime.config
    assert all(ticket.admitted for ticket in runtime.tickets.values())
    metrics = runtime.run()

    # per admitted task of the scenario, over its k replicas
    completed = [0] * BASE_TASKS
    late = [0] * BASE_TASKS
    for task_id, task in metrics.tasks.items():
        completed[(task_id - 1) % BASE_TASKS] += task.completed
        late[(task_id - 1) % BASE_TASKS] += task.deadline_misses
    assert min(completed) > 100 * k
    on_time = [1.0 - missed / done for missed, done in zip(late, completed)]
    assert min(on_time) >= 0.99, on_time

    # whoever is late was late on arrival: the uplink left it less than
    # its own compute time and the way back
    saveable = [
        r for r in runtime.last_requests
        if r.completed and r.missed_deadline
        and r.deadline_at - r.dispatched_at - config.result_return_s
        >= r.path.compute_time_s
    ]
    assert not saveable

    drops = sum(task.drops[DropReason.DEADLINE] for task in metrics.tasks.values())
    assert drops <= DEADLINE_DROPS[k, poisson]
    assert not any(task.drops[DropReason.QUEUE_FULL] for task in metrics.tasks.values())

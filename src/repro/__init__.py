"""OffloaDNN reproduction — shaping DNNs for scalable offloading of
computer vision tasks at the edge (IEEE ICDCS 2024).

Public API tour:

* the DOT problem and solvers: :mod:`repro.core`
  (``DOTProblem``, ``OffloaDNNSolver``, ``OptimalSolver``)
* the DNN substrate: :mod:`repro.dnn`
  (numpy ResNet-18, structured pruning, profiling, training simulation)
* the evaluation scenarios: :mod:`repro.workloads`
  (``small_scale_problem``, ``large_scale_problem``)
* the SEM-O-RAN baseline: :mod:`repro.baselines`
* the edge platform and controller: :mod:`repro.edge`
* the radio substrate: :mod:`repro.radio`
* the Colosseum substitute's simulator and LTE cell: :mod:`repro.emulator`
* the serving runtime executing admitted streams: :mod:`repro.serving`
  (``ServingRuntime``, ``TokenBucket``, ``ServingMetrics``; Fig. 11 is
  its ``fig11_runtime`` configuration)
* the multi-node serving fabric: :mod:`repro.cluster`
  (``ClusterOrchestrator``, ``NodeSpec``, ``StreamRouter``)
* tracing/metrics/trace export: :mod:`repro.obs`
  (``ObsSession``, ``use_tracer``, ``MetricsRegistry``)
* figure/table reproduction: :mod:`repro.analysis`

Quickstart::

    from repro.workloads import small_scale_problem
    from repro.core import OffloaDNNSolver, objective_value

    problem = small_scale_problem(num_tasks=5)
    solution = OffloaDNNSolver().solve(problem)
    print(solution.admitted_task_count, objective_value(problem, solution))
"""

from repro.core import (
    Assignment,
    Block,
    Budgets,
    Catalog,
    DOTProblem,
    DOTSolution,
    OffloaDNNSolver,
    OptimalSolver,
    Path,
    QualityLevel,
    Task,
    check_constraints,
    objective_value,
)
from repro.baselines import SemORANSolver
from repro.cluster import ClusterOrchestrator, NodeSpec, StreamRouter
from repro.obs import ObsSession, use_tracer
from repro.serving import ServingConfig, ServingMetrics, ServingRuntime, TokenBucket
from repro.workloads import (
    RequestRate,
    large_scale_problem,
    serving_small_scale_problem,
    small_scale_problem,
)

__version__ = "1.0.0"

__all__ = [
    "Assignment",
    "Block",
    "Budgets",
    "Catalog",
    "ClusterOrchestrator",
    "DOTProblem",
    "DOTSolution",
    "NodeSpec",
    "ObsSession",
    "OffloaDNNSolver",
    "OptimalSolver",
    "Path",
    "QualityLevel",
    "SemORANSolver",
    "ServingConfig",
    "ServingMetrics",
    "ServingRuntime",
    "StreamRouter",
    "Task",
    "TokenBucket",
    "RequestRate",
    "check_constraints",
    "objective_value",
    "large_scale_problem",
    "serving_small_scale_problem",
    "small_scale_problem",
    "use_tracer",
    "__version__",
]

"""The paper's primary contribution: the DOT problem and OffloaDNN solver.

* :mod:`repro.core.task` -- inference tasks and quality levels
* :mod:`repro.core.catalog` -- DNN blocks, paths and the repository catalog
* :mod:`repro.core.problem` -- DOT problem instance (budgets, radio, alpha)
* :mod:`repro.core.solution` -- solutions and per-task assignments
* :mod:`repro.core.latency` -- the one latency model: airtime, r_min and
  full-rate RB counts
* :mod:`repro.core.objective` -- Eq. (1a) objective and (1b)-(1i) checks
* :mod:`repro.core.subproblem` -- per-branch convex (z, r) optimization
* :mod:`repro.core.tree` -- the weighted tree: clique build, first-branch
  walk and branch enumeration
* :mod:`repro.core.heuristic` -- the OffloaDNN first-branch heuristic and
  the branch -> solution assembly every tree-walking solver shares
* :mod:`repro.core.optimal` -- exhaustive branch enumeration (the optimum)
* :mod:`repro.core.aggregate` -- task aggregation for 10⁴–10⁶-user populations
* :mod:`repro.core.serialize` -- JSON round trip of problems and solutions

The pipeline is a chain of plain stage functions every solver composes:
``build_vector_tree(problem, memo=None)`` -> ``first_branch`` or
``branches`` -> ``allocate`` (``heuristic.best_branch`` over several leaves).
A walk returns a pick column, one variant index per clique (-1 for a
task left without a path); ``allocate`` builds the water-fill's
decisions lazily from ``(clique, pick)``, only as many as it reads.
"""

from repro.core.task import Task, QualityLevel
from repro.core.catalog import Block, Path, Catalog
from repro.core.problem import Budgets, DOTProblem
from repro.core.solution import Assignment, DOTSolution
from repro.core.objective import objective_value, check_constraints
from repro.core.heuristic import OffloaDNNSolver, allocate
from repro.core.optimal import OptimalSolver
from repro.core.aggregate import AggregateSolver, AggregationPlan, aggregate_problem
from repro.core.tree import VectorTree, branches, build_vector_tree, first_branch
from repro.core.serialize import dump_problem, dump_solution, load_problem, load_solution

__all__ = [
    "Task",
    "QualityLevel",
    "Block",
    "Path",
    "Catalog",
    "Budgets",
    "DOTProblem",
    "Assignment",
    "DOTSolution",
    "objective_value",
    "check_constraints",
    "OffloaDNNSolver",
    "OptimalSolver",
    "AggregateSolver",
    "AggregationPlan",
    "aggregate_problem",
    "VectorTree",
    "build_vector_tree",
    "first_branch",
    "branches",
    "allocate",
    "dump_problem",
    "dump_solution",
    "load_problem",
    "load_solution",
]

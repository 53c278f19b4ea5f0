"""Per-branch optimization of the admission ratios ``z`` and RB counts ``r``.

Once a tree branch fixes the DNN path of every task (the ``x``/``y``
variables), the remaining problem in ``(z, r)`` is convex (Sec. IV-B).
Two solvers are provided:

* :func:`solve_branch` — an exact *structured* solver exploiting the
  problem's separability: tasks couple only through the radio budget
  Σ z·r ≤ R and the compute budget Σ z·λ·Σc ≤ C.  It processes tasks in
  branch (priority) order and gives each the largest feasible admission
  ratio with the smallest RB allocation that still meets the latency and
  rate constraints — reproducing the published behaviour (top-priority
  tasks admitted fully, then diminishing ratios, then rejections as the
  radio pool saturates).
* :func:`solve_branch_convex` — scipy SLSQP on the relaxed continuous
  program, used as an independent cross-check in tests and for the
  "any convex optimizer" variant the paper mentions.

The structured solver maximizes admission lexicographically by priority
(what the paper's evaluation shows both OffloaDNN and the optimum doing)
while always choosing the cheapest feasible ``r`` — which also minimizes
the Eq. (1a) radio term for the chosen ``z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.catalog import Path
from repro.core.problem import Budgets, DOTProblem
from repro.core.task import Task
from repro.obs.trace import current_tracer

__all__ = [
    "BranchItem",
    "BranchAllocation",
    "minimum_latency_rbs",
    "solve_branch",
    "solve_branch_convex",
]

#: tie-break tolerance of the admission scan: a candidate must beat the
#: incumbent by more than this to displace it (ties prefer smaller r)
_SCAN_EPS = 1e-12


@dataclass(frozen=True)
class BranchItem:
    """One (task, chosen path) pair on a branch, with radio constants."""

    task: Task
    path: Path
    bits_per_rb: float

    @property
    def compute_time_s(self) -> float:
        return self.path.compute_time_s

    def min_latency_rbs(self) -> int:
        """Smallest ``r`` meeting the latency constraint (1g) for z > 0."""
        return minimum_latency_rbs(
            self.path.bits_per_image,
            self.bits_per_rb,
            self.task.max_latency_s,
            self.path.compute_time_s,
        )

    def min_rate_rbs(self, z: float) -> int:
        """Smallest ``r`` meeting the slice-rate constraint (1e) at ``z``."""
        if z <= 0:
            return 0
        need = z * self.task.request_rate * self.path.bits_per_image
        return max(1, math.ceil(need / self.bits_per_rb - 1e-12))

    def required_rbs(self, z: float) -> int:
        if z <= 0:
            return 0
        return max(self.min_latency_rbs(), self.min_rate_rbs(z))


def minimum_latency_rbs(
    bits_per_image: float,
    bits_per_rb: float,
    max_latency_s: float,
    compute_time_s: float,
) -> int:
    """Smallest RB count for which transmission + compute fits the limit.

    Returns a value > any practical budget when the compute time alone
    already exceeds the latency limit.
    """
    slack = max_latency_s - compute_time_s
    if slack <= 0:
        return 10**9
    return max(1, math.ceil(bits_per_image / (bits_per_rb * slack) - 1e-12))


@dataclass
class BranchAllocation:
    """Solver output: per-item admission ratio and RB count."""

    admission: list[float]
    radio_blocks: list[int]

    def __post_init__(self) -> None:
        if len(self.admission) != len(self.radio_blocks):
            raise ValueError("admission and radio vectors disagree in length")


def _candidate_rbs(
    r_latency: int,
    r_upper: int,
    rate_bits: float,
    bits_per_rb: float,
    remaining_radio: float,
    z_compute: float,
) -> list[int]:
    """The integer RB counts at which ``z(r)`` can change regime.

    ``z(r) = min(z_rate(r), z_radio(r), z_compute)`` is the minimum of a
    nondecreasing line, a nonincreasing hyperbola and a constant, so its
    maximum over ``[r_latency, r_upper]`` — and the first integer within
    the scan tolerance of it — lies at an interval endpoint or next to
    one of the pairwise crossings.  Every crossing contributes its
    neighbouring integers, which keeps the scan equivalent to the full
    enumeration (proved empirically in the parity test suite).
    """
    candidates = {r_latency, min(r_latency + 1, r_upper), r_upper}
    crossings: list[float] = []
    if rate_bits > 0 and bits_per_rb > 0:
        slope = bits_per_rb / rate_bits
        # z_rate meets the flat caps (compute bound, full admission)
        crossings.append(min(1.0, z_compute) / slope)
        crossings.append(1.0 / slope)
        if remaining_radio > 0:
            # z_rate meets the declining radio bound: r² = remaining/slope
            crossings.append(math.sqrt(remaining_radio / slope))
    if remaining_radio > 0 and z_compute > 0:
        # the radio bound drops below the compute bound
        crossings.append(remaining_radio / z_compute)
    for x in crossings:
        if not math.isfinite(x):
            continue
        x = min(max(x, float(r_latency)), float(r_upper))
        base = math.floor(x)
        for r in (base - 1, base, base + 1, base + 2):
            if r_latency <= r <= r_upper:
                candidates.add(r)
    return sorted(candidates)


def _best_admission_for_item(
    item: BranchItem,
    remaining_radio: float,
    remaining_compute: float,
    max_rbs: int,
) -> tuple[float, int]:
    """Largest feasible ``z`` (and its cheapest ``r``) for one item.

    Closed form: instead of enumerating every integer in
    ``[r_latency, r_upper]`` (O(R) per item), scan only the O(1)
    candidate counts where the admission bound can peak — the interval
    endpoints and the integers surrounding the crossings of the rate
    (1e), radio (1d) and compute (1c) bounds.  The scan applies the same
    update rule as the full enumeration (the parity oracle
    ``admission_by_enumeration`` in ``tests/oracles.py``), so ties on ``z``
    still prefer the smaller ``r``.
    """
    r_latency = item.min_latency_rbs()
    if r_latency > max_rbs:
        return 0.0, 0
    rate_bits = item.task.request_rate * item.path.bits_per_image
    compute_per_unit_z = item.task.request_rate * item.compute_time_s
    z_compute = (
        1.0
        if compute_per_unit_z <= 0
        else min(1.0, remaining_compute / compute_per_unit_z)
    )
    if z_compute <= 0:
        return 0.0, 0

    best_z, best_r = 0.0, 0
    r_upper = min(max_rbs, max(r_latency, item.min_rate_rbs(1.0)))
    for r in _candidate_rbs(
        r_latency, r_upper, rate_bits, item.bits_per_rb, remaining_radio, z_compute
    ):
        z_rate = min(1.0, r * item.bits_per_rb / rate_bits) if rate_bits > 0 else 1.0
        z_radio = min(1.0, remaining_radio / r) if r > 0 else 1.0
        z = min(z_rate, z_radio, z_compute)
        if z > best_z + _SCAN_EPS:
            best_z, best_r = z, r
    if best_z <= 1e-9:
        return 0.0, 0
    return best_z, best_r


def _radio_spent(remaining_radio: float) -> bool:
    """Whether the radio pool (1d) is too spent to admit any further item.

    Proof that a cascade may then settle every later item as ``(0.0, 0)``
    without scanning it: :func:`_best_admission_for_item` tries RB counts
    ``r >= r_latency >= 1`` only (:func:`minimum_latency_rbs` is at least
    1), each bounded by ``z <= z_radio = min(1, remaining / r) <=
    remaining <= 1e-9``, so its best ``z`` cannot clear the closing
    ``best_z <= 1e-9`` floor and it returns ``(0.0, 0)`` for any item and
    compute pool.  A ``z`` of 0 moves neither pool, so the pool stays
    spent for the rest of the branch.
    """
    return remaining_radio <= 1e-9


def solve_branch(
    items: list[BranchItem],
    budgets: Budgets,
    admission_floor: float = 1e-6,
) -> BranchAllocation:
    """Exact structured solver (see module docstring).

    ``items`` must be in descending priority order — the branch order of
    the weighted tree.  An item that cannot obtain an admission ratio of
    at least ``admission_floor`` is rejected outright (``z = 0``), which
    releases its radio and compute demand for lower-priority tasks and
    lets the caller drop its otherwise-unused blocks.  Once the radio
    pool is spent (:func:`_radio_spent`) the rest of the branch is
    rejected in one step, without a closed-form scan per item: a
    10⁴-task branch whose first 20 items fill the pool costs 20 scans.
    """
    tracer = current_tracer()
    start = tracer.clock() if tracer.enabled else 0.0
    remaining_radio = float(budgets.radio_blocks)
    remaining_compute = float(budgets.compute_time_s)
    admission: list[float] = []
    rbs: list[int] = []
    spent_at = None
    for position, item in enumerate(items):
        if _radio_spent(remaining_radio):
            spent_at = position
            break
        z, r = _best_admission_for_item(
            item, remaining_radio, remaining_compute, budgets.radio_blocks
        )
        if z < admission_floor:
            admission.append(0.0)
            rbs.append(0)
            continue
        admission.append(z)
        rbs.append(r)
        remaining_radio -= z * r
        remaining_compute -= z * item.task.request_rate * item.compute_time_s
    if spent_at is not None:
        admission.extend([0.0] * (len(items) - spent_at))
        rbs.extend([0] * (len(items) - spent_at))
    if tracer.enabled:
        tracer.record(
            "solver.water_fill",
            start,
            tracer.clock() - start,
            cat="solver",
            track="solver",
            args={
                "items": len(items),
                "admitted": sum(z > 0 for z in admission[:spent_at]),
                "radio_spent_at": spent_at,
            },
        )
    return BranchAllocation(admission=admission, radio_blocks=rbs)


def solve_branch_convex(
    items: list[BranchItem],
    budgets: Budgets,
    alpha: float,
    training_cost_s: float = 0.0,
) -> BranchAllocation:
    """SLSQP solve of the relaxed continuous subproblem.

    Minimizes the Eq. (1a) objective restricted to the branch (paths
    given, so the training term is a constant) over ``z ∈ [0, 1]`` and
    continuous ``r``, subject to (1c)-(1e) and (1g); the returned ``r``
    is rounded up to integers and ``z`` re-clipped to feasibility.

    Because Eq. (1a) rewards rejecting low-priority tasks whose resource
    cost exceeds ``α·p``, this solver can return lower admission than
    :func:`solve_branch`; it exists as the faithful "convex optimizer"
    variant and as a cross-check of the structured solver's feasibility.
    """
    from scipy.optimize import minimize  # local import: scipy is heavy

    n = len(items)
    if n == 0:
        return BranchAllocation(admission=[], radio_blocks=[])
    if budgets.radio_blocks <= 0 or budgets.compute_time_s <= 0:
        # zero-headroom instance (e.g. an exhausted online platform):
        # nothing can be admitted, and the normalized objective below
        # would divide by the zero budget
        return BranchAllocation(admission=[0.0] * n, radio_blocks=[0] * n)

    lam = np.array([it.task.request_rate for it in items])
    prio = np.array([it.task.priority for it in items])
    comp = np.array([it.compute_time_s for it in items])
    beta = np.array([it.path.bits_per_image for it in items])
    bpr = np.array([it.bits_per_rb for it in items])
    r_lat = np.array([it.min_latency_rbs() for it in items], dtype=float)
    r_cap = float(budgets.radio_blocks)

    infeasible = r_lat > r_cap

    def objective(xs: np.ndarray) -> float:
        z, r = xs[:n], xs[n:]
        rejection = float(((1.0 - z) * prio).sum())
        radio = float((z * lam * r).sum()) / budgets.radio_blocks
        inference = float((z * lam * comp).sum()) / budgets.compute_time_s
        training = training_cost_s / budgets.training_budget_s
        return alpha * rejection + (1 - alpha) * (training + radio + inference)

    constraints = [
        {  # (1d)
            "type": "ineq",
            "fun": lambda xs: budgets.radio_blocks - float((xs[:n] * xs[n:]).sum()),
        },
        {  # (1c)
            "type": "ineq",
            "fun": lambda xs: budgets.compute_time_s - float((xs[:n] * lam * comp).sum()),
        },
        {  # (1e) per task
            "type": "ineq",
            "fun": lambda xs: bpr * xs[n:] - xs[:n] * lam * beta,
        },
    ]
    bounds = [(0.0, 1.0)] * n + [
        (float(r_lat[i]) if not infeasible[i] else 0.0, r_cap) for i in range(n)
    ]
    x0 = np.concatenate([np.full(n, 0.5), np.maximum(r_lat, 1.0)])
    x0[n:] = np.minimum(x0[n:], r_cap)
    result = minimize(
        objective,
        x0,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": 300, "ftol": 1e-9},
    )
    z = np.clip(result.x[:n], 0.0, 1.0)
    r = np.ceil(result.x[n:] - 1e-9).astype(int)
    # re-clip to integer feasibility
    admission: list[float] = []
    rbs: list[int] = []
    remaining_radio = float(budgets.radio_blocks)
    remaining_compute = float(budgets.compute_time_s)
    for i, item in enumerate(items):
        if infeasible[i] or z[i] <= 1e-6:
            admission.append(0.0)
            rbs.append(0)
            continue
        ri = max(int(r[i]), item.min_latency_rbs())
        if ri <= 0:
            admission.append(0.0)
            rbs.append(0)
            continue
        rate_bits = lam[i] * beta[i]
        zi = min(
            z[i],
            # a zero-bits quality level (beta == 0) puts no load on the
            # slice, so the rate constraint (1e) never binds
            ri * item.bits_per_rb / rate_bits if rate_bits > 0 else 1.0,
            remaining_radio / ri,
            remaining_compute / (lam[i] * comp[i]) if comp[i] > 0 else 1.0,
        )
        zi = float(np.clip(zi, 0.0, 1.0))
        if zi <= 1e-6:
            admission.append(0.0)
            rbs.append(0)
            continue
        admission.append(zi)
        rbs.append(ri)
        remaining_radio -= zi * ri
        remaining_compute -= zi * lam[i] * comp[i]
    return BranchAllocation(admission=admission, radio_blocks=rbs)

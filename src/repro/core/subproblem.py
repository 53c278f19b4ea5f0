"""Per-branch optimization of the admission ratios ``z`` and RB counts ``r``.

Once a tree branch fixes the DNN path of every task (the ``x``/``y``
variables), the remaining problem in ``(z, r)`` is convex (Sec. IV-B).
:func:`solve_branch` is its one solver, an exact *structured* one
exploiting the problem's separability: tasks couple only through the
radio budget Σ z·r ≤ R and the compute budget Σ z·λ·Σc ≤ C.  It
processes tasks in branch (priority) order and gives each the largest
feasible admission ratio with the smallest RB allocation that still
meets the latency and rate constraints — reproducing the published
behaviour (top-priority tasks admitted fully, then diminishing ratios,
then rejections as the radio pool saturates).

It maximizes admission lexicographically by priority (what the paper's
evaluation shows both OffloaDNN and the optimum doing) while always
choosing the cheapest feasible ``r`` — which also minimizes the Eq. (1a)
radio term for the chosen ``z``.  A strict minimizer of Eq. (1a) (the
SLSQP solve in ``tests/oracles.py``) rejects low-priority tasks instead.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass

from repro.core.catalog import Path
from repro.core.latency import full_rate_rbs
from repro.core.problem import Budgets
from repro.core.task import Task
from repro.obs.trace import current_tracer

__all__ = [
    "BranchItem",
    "BranchAllocation",
    "solve_branch",
]

#: tie-break tolerance of the admission scan: a candidate must beat the
#: incumbent by more than this to displace it (ties prefer smaller r)
_SCAN_EPS = 1e-12


@dataclass(frozen=True)
class BranchItem:
    """One (task, chosen path) pair on a branch, with radio constants.

    ``min_latency_rbs`` is the variant's ``r_min`` (1g), read off its
    clique's column (:func:`repro.core.latency.min_latency_rbs`).
    """

    task: Task
    path: Path
    bits_per_rb: float
    min_latency_rbs: int

    @property
    def compute_time_s(self) -> float:
        return self.path.compute_time_s


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
    r_latency = item.min_latency_rbs
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
    r_full = full_rate_rbs(rate_bits, item.bits_per_rb)
    r_upper = min(max_rbs, max(r_latency, r_full))
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
    ``r >= r_latency >= 1`` only (``r_min`` is at least
    1), each bounded by ``z <= z_radio = min(1, remaining / r) <=
    remaining <= 1e-9``, so its best ``z`` cannot clear the closing
    ``best_z <= 1e-9`` floor and it returns ``(0.0, 0)`` for any item and
    compute pool.  A ``z`` of 0 moves neither pool, so the pool stays
    spent for the rest of the branch.
    """
    return remaining_radio <= 1e-9


def solve_branch(
    items: Collection[BranchItem],
    budgets: Budgets,
    admission_floor: float = 1e-6,
) -> BranchAllocation:
    """Exact structured solver (see module docstring).

    ``items`` must be in descending priority order — the branch order of
    the weighted tree — and may be any sized iterable: they are read in
    order, each once, and not past the point where the pool is spent.
    An item that cannot obtain an admission ratio of at least
    ``admission_floor`` is rejected outright (``z = 0``), which releases
    its radio and compute demand for lower-priority tasks and lets the
    caller drop its otherwise-unused blocks.  Once the radio
    pool is spent (:func:`_radio_spent`) the rest of the branch is
    rejected in one step, without a closed-form scan per item and
    without reading the rest: a 10⁴-task branch whose first 20 items fill
    the pool costs 20 scans, and a lazy ``items`` (what
    :func:`~repro.core.heuristic.allocate` passes) builds 21 items.
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

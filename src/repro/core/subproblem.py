"""The admission cascade: per-branch ``(z, r)`` for every task.

Once a tree branch fixes the DNN path of every task (the ``x``/``y``
variables), the remaining problem in ``(z, r)`` is convex (Sec. IV-B).
:func:`solve_branch` is its one solver, an exact *structured* one
exploiting the problem's separability: tasks couple only through the
radio pool and the compute budget Σ z·λ·Σc ≤ C.  The radio pool is
counted on the slice grid: an admitted task holds all ``r`` RBs of its
slice, so the solver keeps Σ r ≤ R, and the paper's (1d) Σ z·r ≤ R
holds a fortiori.  It
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

Every tree-walking solver runs this one cascade.  A branch item may
stand for several interchangeable tasks (a replica group of
:class:`~repro.core.aggregate.AggregateSolver`); the cascade then
settles its members in rounds, one closed form per round, and a
per-task solver is the case of one member per item.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass

from repro.core.catalog import Path
from repro.core.latency import full_rate_rbs
from repro.core.problem import Budgets
from repro.core.task import Task
from repro.obs.trace import current_tracer

__all__ = [
    "ADMISSION_FLOOR",
    "BranchItem",
    "BranchAllocation",
    "solve_branch",
]

#: the least admission ratio the cascade grants: an item that cannot
#: reach it is rejected outright (``z = 0``), which releases its radio
#: and compute demand for lower-priority items
ADMISSION_FLOOR = 1e-6

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
    """Solver output: one admission ratio, RB count and member count per
    round, rounds in item order.  An item's rounds hold its members in
    order (their counts sum to its member count), so with one member per
    item the rounds are the items."""

    admission: list[float]
    radio_blocks: list[int]
    members: list[int]

    def __post_init__(self) -> None:
        if not len(self.admission) == len(self.radio_blocks) == len(self.members):
            raise ValueError("admission, radio and member vectors disagree in length")


def _best_admission_for_item(
    item: BranchItem,
    remaining_radio: float,
    remaining_compute: float,
    max_rbs: int,
) -> tuple[float, int]:
    """Largest feasible ``z`` (and its cheapest ``r``) for one item.

    On the slice grid an admitted item holds all of its ``r`` RBs, so
    ``r`` ranges over ``[r_latency, r_upper]`` with ``r_upper =
    min(max_rbs, ⌊remaining⌋, max(r_latency, r_full))``, and there
    ``z(r) = min(z_rate(r), z_compute)`` is nondecreasing: the rate
    bound (1e) is a line through the origin, the compute bound (1c) a
    constant.  The best ``z`` is first reached at the smallest ``r``
    whose ``z_rate`` meets ``min(1, z_compute)``, clipped to the
    interval — one closed form instead of an O(R) enumeration.  The
    two short walks settle float rounding of that crossing by the full
    enumeration's update rule (the parity oracle
    ``admission_by_enumeration`` in ``tests/oracles.py``), so ties on
    ``z`` still prefer the smaller ``r``.
    """
    r_latency = item.min_latency_rbs
    bits_per_rb = item.bits_per_rb
    rate_bits = item.task.request_rate * item.path.bits_per_image
    r_upper = min(
        max_rbs, int(remaining_radio), max(r_latency, full_rate_rbs(rate_bits, bits_per_rb))
    )
    if r_latency > r_upper:
        return 0.0, 0
    compute_per_unit_z = item.task.request_rate * item.compute_time_s
    z_compute = (
        1.0
        if compute_per_unit_z <= 0
        else min(1.0, remaining_compute / compute_per_unit_z)
    )
    if z_compute <= 0:
        return 0.0, 0

    def z_at(r: int) -> float:
        z_rate = min(1.0, r * bits_per_rb / rate_bits) if rate_bits > 0 else 1.0
        return min(z_rate, z_compute)

    r = min(max(r_latency, full_rate_rbs(z_compute * rate_bits, bits_per_rb)), r_upper)
    while r > r_latency and not z_at(r) > z_at(r - 1) + _SCAN_EPS:
        r -= 1
    while r < r_upper and z_at(r + 1) > z_at(r) + _SCAN_EPS:
        r += 1
    z = z_at(r)
    if z <= 1e-9:
        return 0.0, 0
    return z, r


def _radio_spent(remaining_radio: float) -> bool:
    """Whether the radio pool (1d) is too spent to admit any further item.

    Proof that a cascade may then settle every later item as ``(0.0, 0)``
    without scanning it: every slice holds ``r >= r_latency >= 1`` RBs
    (``r_min`` is at least 1), so with less than one RB left
    :func:`_best_admission_for_item`'s interval is empty and it returns
    ``(0.0, 0)`` for any item and compute pool.  A ``z`` of 0 moves
    neither pool, so the pool stays spent for the rest of the branch.
    """
    return remaining_radio < 1


def solve_branch(
    items: Collection[BranchItem],
    budgets: Budgets,
    members: Sequence[int] | None = None,
) -> BranchAllocation:
    """The admission cascade (see module docstring).

    ``items`` must be in descending priority order — the branch order of
    the weighted tree — and may be any sized iterable: they are read in
    order, each once, and not past the point where the pool is spent.
    ``members`` counts the tasks each item stands for (one each when
    ``None``).  An item's members are settled in rounds: a round is one
    closed-form ``(z, r)`` against the live pools, held by as many of
    the item's members as both pools allow, so a one-member round
    subtracts exactly ``r`` and ``z·λ·c``.  A ``z`` below
    :data:`ADMISSION_FLOOR` rejects the item's remaining members in one
    round (``z = 0``, ``r = 0``): the pools do not move, so each of them
    would meet the same ``z``.  Once the radio pool is spent
    (:func:`_radio_spent`) every later item is rejected in one round,
    without a closed-form scan and without reading it: a 10⁴-task
    branch whose first 20 items fill the pool costs 20 scans, and a lazy
    ``items`` (what :func:`~repro.core.heuristic.allocate` passes)
    builds 21 items.
    """
    tracer = current_tracer()
    start = tracer.clock() if tracer.enabled else 0.0
    radio_blocks = budgets.radio_blocks
    remaining_radio = float(radio_blocks)
    remaining_compute = float(budgets.compute_time_s)
    admission: list[float] = []
    rbs: list[int] = []
    counts: list[int] = []
    admitted = 0
    spent_at = None
    for position, item in enumerate(items):
        if _radio_spent(remaining_radio):
            spent_at = position
            break
        left = 1 if members is None else members[position]
        while left:
            z, r = _best_admission_for_item(
                item, remaining_radio, remaining_compute, radio_blocks
            )
            if z < ADMISSION_FLOOR:
                admission.append(0.0)
                rbs.append(0)
                counts.append(left)
                break
            compute = z * item.task.request_rate * item.compute_time_s
            run = left
            if run > 1:
                # r >= r_min >= 1; the member the closed form was
                # computed for always fits
                run = min(run, math.floor(remaining_radio / r + 1e-9))
                if compute > 0:
                    run = min(run, math.floor(remaining_compute / compute + 1e-9))
                run = max(1, run)
            admission.append(z)
            rbs.append(r)
            counts.append(run)
            remaining_radio -= run * r
            remaining_compute -= run * compute
            admitted += run
            left -= run
    if spent_at is not None:
        tail = len(items) - spent_at
        admission.extend([0.0] * tail)
        rbs.extend([0] * tail)
        counts.extend([1] * tail if members is None else members[spent_at:])
    if tracer.enabled:
        tracer.record(
            "solver.water_fill",
            start,
            tracer.clock() - start,
            cat="solver",
            track="solver",
            args={"items": len(items), "admitted": admitted, "radio_spent_at": spent_at},
        )
    return BranchAllocation(admission=admission, radio_blocks=rbs, members=counts)

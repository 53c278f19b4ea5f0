"""Unit tests for the per-branch (z, r) subproblem solvers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import Budgets
from repro.core.subproblem import (
    BranchItem,
    minimum_latency_rbs,
    solve_branch,
    solve_branch_convex,
)
from tests.conftest import make_block, make_path, make_task


def _item(
    task_id: int = 1,
    priority: float = 0.8,
    request_rate: float = 5.0,
    max_latency_s: float = 0.3,
    compute_time_s: float = 0.01,
    bits_per_image: float = 350_000.0,
    bits_per_rb: float = 350_000.0,
) -> BranchItem:
    from repro.core.task import QualityLevel

    quality = QualityLevel("q", bits_per_image)
    task = make_task(
        task_id,
        priority=priority,
        request_rate=request_rate,
        max_latency_s=max_latency_s,
        quality=quality,
    )
    path = make_path(task, f"p{task_id}", (make_block(f"b{task_id}", compute_time_s=compute_time_s),))
    return BranchItem(task=task, path=path, bits_per_rb=bits_per_rb)


def _budgets(radio: int = 50, compute: float = 2.5) -> Budgets:
    return Budgets(
        compute_time_s=compute, training_budget_s=1000.0, memory_gb=8.0, radio_blocks=radio
    )


class TestMinimumLatencyRbs:
    def test_formula(self):
        # 350 kb, 0.35 Mbps/RB, 0.3 s limit, 0.1 s compute -> 1/(0.2) = 5
        assert minimum_latency_rbs(350_000.0, 350_000.0, 0.3, 0.1) == 5

    def test_compute_exceeding_latency_unreachable(self):
        assert minimum_latency_rbs(350_000.0, 350_000.0, 0.1, 0.2) >= 10**9

    def test_at_least_one_rb(self):
        assert minimum_latency_rbs(1.0, 1e9, 10.0, 0.0) == 1


class TestSolveBranchSingleTask:
    def test_full_admission_when_abundant(self):
        alloc = solve_branch([_item()], _budgets())
        assert alloc.admission == [1.0]
        # rate needs ceil(5*350k/350k) = 5 RBs; latency needs ceil(1/0.29)=4
        assert alloc.radio_blocks == [5]

    def test_latency_drives_rbs_when_tight(self):
        item = _item(max_latency_s=0.15, compute_time_s=0.05)
        alloc = solve_branch([item], _budgets())
        # slack 0.1 s -> 10 RBs needed, above the 5 rate-driven RBs
        assert alloc.radio_blocks == [10]
        assert alloc.admission == [1.0]

    def test_infeasible_latency_rejected(self):
        item = _item(max_latency_s=0.009, compute_time_s=0.01)
        alloc = solve_branch([item], _budgets())
        assert alloc.admission == [0.0]
        assert alloc.radio_blocks == [0]

    def test_partial_admission_under_radio_scarcity(self):
        item = _item(request_rate=10.0)  # needs 10 RBs at z=1
        alloc = solve_branch([item], _budgets(radio=4))
        assert 0.0 < alloc.admission[0] < 1.0
        z, r = alloc.admission[0], alloc.radio_blocks[0]
        assert z * r <= 4 + 1e-9

    def test_compute_budget_caps_admission(self):
        # 5 req/s x 1 dev-s each = 5 dev-s/s demanded, 2.5 available
        item = _item(request_rate=5.0, compute_time_s=1.0, max_latency_s=2.0)
        alloc = solve_branch([item], _budgets(compute=2.5))
        assert alloc.admission[0] == pytest.approx(0.5)

    def test_empty_branch(self):
        alloc = solve_branch([], _budgets())
        assert alloc.admission == []


class TestSolveBranchMultiTask:
    def test_priority_order_preserved_under_scarcity(self):
        items = [
            _item(task_id=i, priority=1.0 - 0.1 * i, request_rate=5.0)
            for i in range(1, 6)
        ]
        alloc = solve_branch(items, _budgets(radio=12))
        # 5 RBs each; only the first two fit fully
        assert alloc.admission[0] == 1.0
        assert alloc.admission[1] == 1.0
        assert alloc.admission[2] < 1.0

    def test_total_radio_within_budget(self):
        items = [_item(task_id=i, request_rate=7.5) for i in range(1, 8)]
        alloc = solve_branch(items, _budgets(radio=20))
        consumed = sum(z * r for z, r in zip(alloc.admission, alloc.radio_blocks))
        assert consumed <= 20 + 1e-9

    def test_total_compute_within_budget(self):
        items = [_item(task_id=i, compute_time_s=0.2) for i in range(1, 6)]
        alloc = solve_branch(items, _budgets(compute=2.0))
        consumed = sum(
            z * it.task.request_rate * it.compute_time_s
            for z, it in zip(alloc.admission, items)
        )
        assert consumed <= 2.0 + 1e-9

    def test_rejected_tasks_free_resources_for_lower_priority(self):
        # first task infeasible by latency, second should still get full
        items = [
            _item(task_id=1, max_latency_s=0.005, compute_time_s=0.01),
            _item(task_id=2),
        ]
        alloc = solve_branch(items, _budgets())
        assert alloc.admission == [0.0, 1.0]

    def test_rate_constraint_respected_per_task(self):
        items = [_item(task_id=i, request_rate=3.0) for i in range(1, 4)]
        alloc = solve_branch(items, _budgets())
        for z, r, item in zip(alloc.admission, alloc.radio_blocks, items):
            if z > 0:
                assert z * item.task.request_rate * item.path.bits_per_image <= (
                    item.bits_per_rb * r * (1 + 1e-9)
                )


class TestConvexCrossCheck:
    def test_scipy_solution_feasible(self):
        items = [
            _item(task_id=i, priority=1.0 - 0.2 * i, request_rate=5.0)
            for i in range(1, 4)
        ]
        budgets = _budgets(radio=20)
        alloc = solve_branch_convex(items, budgets, alpha=0.5)
        consumed = sum(z * r for z, r in zip(alloc.admission, alloc.radio_blocks))
        assert consumed <= budgets.radio_blocks + 1e-6
        for z, r, item in zip(alloc.admission, alloc.radio_blocks, items):
            if z > 0:
                # rate constraint (1e)
                assert z * item.task.request_rate * item.path.bits_per_image <= (
                    item.bits_per_rb * r * (1 + 1e-6)
                )
                # latency constraint (1g)
                assert r >= item.min_latency_rbs()

    def test_empty_branch(self):
        alloc = solve_branch_convex([], _budgets(), alpha=0.5)
        assert alloc.admission == []

    def test_structured_admission_at_least_convex(self):
        """The structured solver maximizes admission lexicographically, so
        its weighted admission dominates the Eq.-(1a)-minimizing convex
        solution."""
        items = [
            _item(task_id=i, priority=1.0 - 0.15 * i, request_rate=5.0)
            for i in range(1, 5)
        ]
        budgets = _budgets(radio=18)
        structured = solve_branch(items, budgets)
        convex = solve_branch_convex(items, budgets, alpha=0.5)
        w_structured = sum(
            z * it.task.priority for z, it in zip(structured.admission, items)
        )
        w_convex = sum(z * it.task.priority for z, it in zip(convex.admission, items))
        assert w_structured >= w_convex - 1e-6


@given(
    radio=st.integers(min_value=1, max_value=60),
    compute=st.floats(min_value=0.1, max_value=5.0),
    rates=st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_solve_branch_always_feasible_property(radio, compute, rates):
    """For any scarcity level, the structured solver's output respects
    the radio, compute, rate and latency constraints."""
    items = [
        _item(task_id=i + 1, priority=1.0 - 0.1 * i, request_rate=rate)
        for i, rate in enumerate(rates)
    ]
    budgets = _budgets(radio=radio, compute=compute)
    alloc = solve_branch(items, budgets)
    radio_used = sum(z * r for z, r in zip(alloc.admission, alloc.radio_blocks))
    compute_used = sum(
        z * it.task.request_rate * it.compute_time_s
        for z, it in zip(alloc.admission, items)
    )
    assert radio_used <= budgets.radio_blocks + 1e-9
    assert compute_used <= budgets.compute_time_s + 1e-9
    for z, r, item in zip(alloc.admission, alloc.radio_blocks, items):
        assert 0.0 <= z <= 1.0
        if z > 0:
            assert r >= item.min_latency_rbs()
            assert z * item.task.request_rate * item.path.bits_per_image <= (
                item.bits_per_rb * r * (1 + 1e-9)
            )
        else:
            assert r == 0


@given(
    radio=st.integers(min_value=0, max_value=200),
    pool_radio=st.floats(min_value=0.0, max_value=200.0),
    pool_compute=st.floats(min_value=0.0, max_value=5.0),
    rate=st.floats(min_value=0.1, max_value=50.0),
    latency=st.floats(min_value=0.05, max_value=2.0),
    compute_time=st.floats(min_value=0.0, max_value=0.1),
    bits=st.floats(min_value=0.0, max_value=2_000_000.0),
    bpr=st.floats(min_value=10_000.0, max_value=2_000_000.0),
)
@settings(max_examples=300, deadline=None)
def test_closed_form_admission_matches_reference(
    radio, pool_radio, pool_compute, rate, latency, compute_time, bits, bpr
):
    """The O(1) candidate scan returns the exact (z, r) of the O(R)
    enumeration, for any item geometry and any pool state."""
    from repro.core.subproblem import _best_admission_for_item
    from tests.oracles import admission_by_enumeration

    item = _item(
        request_rate=rate,
        max_latency_s=latency,
        compute_time_s=compute_time,
        bits_per_image=bits,
        bits_per_rb=bpr,
    )
    fast = _best_admission_for_item(item, pool_radio, pool_compute, radio)
    slow = admission_by_enumeration(item, pool_radio, pool_compute, radio)
    assert fast == slow


def test_closed_form_matches_reference_on_cascade():
    """Sequential pool states of a real cascade hit the same (z, r)."""
    from repro.core.subproblem import _best_admission_for_item
    from tests.oracles import admission_by_enumeration

    items = [
        _item(task_id=i, priority=1.0 - 0.05 * i, request_rate=2.5 + 0.5 * i,
              max_latency_s=0.2 + 0.02 * i)
        for i in range(1, 21)
    ]
    budgets = _budgets(radio=100, compute=10.0)
    remaining_radio = float(budgets.radio_blocks)
    remaining_compute = float(budgets.compute_time_s)
    for item in items:
        fast = _best_admission_for_item(
            item, remaining_radio, remaining_compute, budgets.radio_blocks
        )
        slow = admission_by_enumeration(
            item, remaining_radio, remaining_compute, budgets.radio_blocks
        )
        assert fast == slow
        z, r = fast
        remaining_radio -= z * r
        remaining_compute -= z * item.task.request_rate * item.compute_time_s


class TestZeroBitsPath:
    """bits_per_image == 0 models cached inputs; it must be admitted at
    the 1-RB control minimum, not crash the solvers."""

    def test_solve_branch_zero_bits(self):
        item = _item(bits_per_image=0.0)
        alloc = solve_branch([item], _budgets())
        assert alloc.admission == [1.0]
        assert alloc.radio_blocks == [1]

    def test_solve_branch_convex_zero_bits_no_zerodivision(self):
        items = [_item(task_id=1, bits_per_image=0.0),
                 _item(task_id=2, priority=0.6)]
        alloc = solve_branch_convex(items, _budgets(), alpha=0.5)
        for z, r in zip(alloc.admission, alloc.radio_blocks):
            assert 0.0 <= z <= 1.0
            assert r >= 0

    def test_solve_branch_convex_zero_compute_path(self):
        """A path of zero-compute blocks must not divide by c = 0."""
        items = [_item(task_id=1, compute_time_s=0.0)]
        alloc = solve_branch_convex(items, _budgets(), alpha=0.5)
        assert 0.0 <= alloc.admission[0] <= 1.0

    def test_solve_branch_convex_zero_headroom_budgets(self):
        items = [_item(task_id=1)]
        budgets = Budgets(
            compute_time_s=0.0, training_budget_s=1000.0,
            memory_gb=8.0, radio_blocks=0,
        )
        alloc = solve_branch_convex(items, budgets, alpha=0.5)
        assert alloc.admission == [0.0]
        assert alloc.radio_blocks == [0]

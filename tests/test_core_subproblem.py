"""Unit tests for the per-branch (z, r) solver, and the SLSQP oracle it
is checked against."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import min_latency_rbs
from repro.core.problem import Budgets
from repro.core.subproblem import BranchItem, solve_branch
from repro.core.tree import build_vector_tree
from repro.workloads.largescale import RequestRate, large_scale_problem
from tests.conftest import make_block, make_path, make_task
from tests.oracles import solve_branch_convex


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
    r_min = min_latency_rbs(bits_per_image, bits_per_rb, max_latency_s, path.compute_time_s)
    return BranchItem(task, path, bits_per_rb, r_min)


def _budgets(radio: int = 50, compute: float = 2.5) -> Budgets:
    return Budgets(
        compute_time_s=compute, training_budget_s=1000.0, memory_gb=8.0, radio_blocks=radio
    )


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
        # the slice holds all its RBs: r itself fits the pool
        assert alloc.radio_blocks == [4]

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
        # the slice grid, which bounds the paper's Σ z·r from above
        assert sum(alloc.radio_blocks) <= 20

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
                assert r >= item.min_latency_rbs

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

    @pytest.mark.parametrize("rate", list(RequestRate))
    def test_strict_minimizer_admits_less_than_the_water_fill(self, rate):
        """The reading note in EXPERIMENTS.md: a strict minimizer of Eq.
        (1a) rejects low-priority tasks the published admission keeps.
        On the first (least-compute) variant of every task of Table IV,
        weighted admission read SLSQP 10.430 / 9.651 / 6.426 against
        ``solve_branch``'s 10.500 / 10.500 / 8.913 (low / medium / high)."""
        problem = large_scale_problem(rate)
        radio = problem.budgets.radio_blocks
        items = [
            BranchItem(
                clique.task,
                clique.variant_path(feasible[0]),
                clique.bits_per_rb,
                clique.min_latency_rbs(feasible[0]),
            )
            for clique in build_vector_tree(problem).cliques
            if (feasible := clique.feasible(radio))
        ]
        structured = solve_branch(items, problem.budgets)
        convex = solve_branch_convex(items, problem.budgets, alpha=problem.alpha)

        def weighted(allocation):
            return sum(z * it.task.priority for z, it in zip(allocation.admission, items))

        assert weighted(convex) < weighted(structured) - 1e-3
        if rate is not RequestRate.HIGH:
            # the radio pool fits everyone, and SLSQP still turns the
            # lowest-priority task away
            (last,) = [i for i, it in enumerate(items) if it.task.priority == 0.05]
            assert structured.admission[last] == 1.0
            assert convex.admission[last] == 0.0


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
    radio_used = sum(alloc.radio_blocks)
    compute_used = sum(
        z * it.task.request_rate * it.compute_time_s
        for z, it in zip(alloc.admission, items)
    )
    assert radio_used <= budgets.radio_blocks
    assert compute_used <= budgets.compute_time_s + 1e-9
    for z, r, item in zip(alloc.admission, alloc.radio_blocks, items):
        assert 0.0 <= z <= 1.0
        if z > 0:
            assert r >= item.min_latency_rbs
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
    """The O(1) closed form returns the exact (z, r) of the O(R)
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
        remaining_radio -= r
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


# ---------------------------------------------------------------------------
# The water-fill stops once the radio pool is spent
# ---------------------------------------------------------------------------


@st.composite
def cascades(draw):
    """Items on sampled grids, where pools run to exactly 0: z = 1 on
    r = 5 of 10 RBs, zero-compute and zero-bit items, compute bound first."""
    items = [
        _item(
            task_id=i + 1,
            priority=1.0 - 0.01 * i,
            request_rate=draw(st.sampled_from([0.5, 2.0, 5.0, 10.0])),
            max_latency_s=draw(st.sampled_from([0.3, 0.6, 1.0])),
            compute_time_s=draw(st.sampled_from([0.0, 0.01, 0.05])),
            bits_per_image=draw(st.sampled_from([0.0, 175_000.0, 350_000.0])),
            bits_per_rb=draw(st.sampled_from([350_000.0, 700_000.0])),
        )
        for i in range(draw(st.integers(0, 12)))
    ]
    budgets = _budgets(
        radio=draw(st.sampled_from([0, 1, 5, 10, 20, 50])),
        compute=draw(st.sampled_from([0.0, 0.1, 0.5, 2.5])),
    )
    return items, budgets


def _bits(allocation):
    """An allocation as exact floats and counts."""
    return (
        [float(z).hex() for z in allocation.admission],
        allocation.radio_blocks,
        allocation.members,
    )


def _branch_tree(items, budgets):
    """The tree of a problem holding the items' tasks, one variant each
    (the item's path), and a branch over it with a path-less task every
    third layer."""
    from repro.core.catalog import Catalog
    from repro.core.problem import DOTProblem, RadioModel
    from repro.core.tree import build_vector_tree

    catalog = Catalog()
    for item in items:
        catalog.add_path(item.path)
    radio = RadioModel(
        per_task_bits_per_rb={item.task.task_id: item.bits_per_rb for item in items}
    )
    tasks = tuple(item.task for item in items)
    tree = build_vector_tree(
        DOTProblem(tasks=tasks, catalog=catalog, budgets=budgets, radio=radio)
    )
    assert [(c.task, len(c)) for c in tree.cliques] == [(t, 1) for t in tasks]
    chosen = [-1 if item.task.task_id % 3 == 0 else 0 for item in items]
    return tree, chosen


def _solution_bits(solution):
    return [
        (tid, a.path.path_id if a.path else None, a.admission_ratio.hex(), a.radio_blocks)
        for tid, a in solution.assignments.items()
    ]


class TestRadioSpentStop:
    @settings(max_examples=300, deadline=None)
    @given(cascade=cascades())
    def test_equals_the_per_item_water_fill(self, cascade):
        from unittest import mock

        from repro.core import heuristic
        from tests.oracles import per_item_solve_branch

        items, budgets = cascade
        assert _bits(solve_branch(items, budgets)) == _bits(
            per_item_solve_branch(items, budgets)
        )
        if not items:
            return
        tree, chosen = _branch_tree(items, budgets)
        for margin in (0, 2):
            got = heuristic.allocate(tree, chosen, margin)
            with mock.patch.object(heuristic, "solve_branch", per_item_solve_branch):
                want = heuristic.allocate(tree, chosen, margin)
            assert _solution_bits(got) == _solution_bits(want)

    def test_the_corners_are_reached(self):
        """The stop fires on a pool spent to exactly 0.0 mid-branch, and a
        compute-bound cascade that leaves radio over
        scans every item, zero-compute ones included."""
        from unittest import mock

        from repro.core import subproblem
        from tests.oracles import per_item_solve_branch

        fill = [_item(task_id=i, request_rate=5.0) for i in range(1, 6)]
        assert [it.min_latency_rbs for it in fill] == [4] * 5
        compute_first = [
            _item(task_id=1, request_rate=10.0, compute_time_s=0.05),
            *(_item(task_id=i, compute_time_s=0.0, bits_per_image=0.0) for i in (2, 3)),
        ]
        cases = [
            # z = 1 on r = 5 twice drains 10 RBs to exactly 0.0
            (fill, _budgets(radio=10), 2),
            # compute binds at item 1; the zero-compute items still fit
            (compute_first, _budgets(radio=50, compute=0.25), None),
            (fill, _budgets(radio=0), 0),
        ]
        for items, budgets, spent_at in cases:
            spy = mock.patch.object(
                subproblem, "_best_admission_for_item",
                wraps=subproblem._best_admission_for_item,
            )
            with spy as scans:
                got = solve_branch(items, budgets)
            assert _bits(got) == _bits(per_item_solve_branch(items, budgets))
            assert scans.call_count == (len(items) if spent_at is None else spent_at)
        assert _bits(solve_branch(compute_first, _budgets(radio=50, compute=0.25))) == (
            [(0.5).hex(), (1.0).hex(), (1.0).hex()], [5, 1, 1], [1, 1, 1]
        )

    def test_a_population_solve_scans_the_admitted_only(self):
        """On a 10⁴-task direct solve the water-fill scans at most one item
        past the admitted ones, and the walk, whose heads all fit, never
        runs a clique's feasible() scan."""
        from unittest import mock

        from repro.core import subproblem
        from repro.core.catalog import Catalog
        from repro.core.heuristic import OffloaDNNSolver
        from repro.core.tree import VectorClique
        from repro.workloads.largescale import (
            RequestRate,
            replicated_large_scale_problem,
        )

        shared = replicated_large_scale_problem(RequestRate.MEDIUM, 500)
        catalog = Catalog()
        for task_id, paths in shared.catalog.paths_by_task.items():
            catalog.paths_by_task[task_id] = paths[::-1]  # de-shared tuples
        problem = replace(shared, catalog=catalog)
        assert len(problem.tasks) == 10_000
        scans = mock.patch.object(
            subproblem, "_best_admission_for_item",
            wraps=subproblem._best_admission_for_item,
        )
        walks = mock.patch.object(
            VectorClique, "feasible", autospec=True, side_effect=VectorClique.feasible
        )
        with scans as scanned, walks as walked:
            solution = OffloaDNNSolver().solve(problem)
        admitted = solution.admitted_task_count
        assert 0 < admitted < len(problem.tasks)
        assert scanned.call_count <= admitted + 1
        assert walked.call_count == 0

    def test_the_water_fill_span_says_where_the_pool_ran_out(self):
        """A traced population solve names the position of the stop and
        the admitted count; a branch the pool outlasts exports ``null``."""
        import json

        from repro.core.heuristic import OffloaDNNSolver
        from repro.obs import Tracer, jsonl_lines, use_tracer
        from repro.workloads.largescale import (
            RequestRate,
            replicated_large_scale_problem,
        )

        def water_fill_args(problem):
            tracer = Tracer()
            with use_tracer(tracer):
                solution = OffloaDNNSolver().solve(problem)
            (line,) = [
                json.loads(line) for line in jsonl_lines([tracer])
                if json.loads(line)["name"] == "solver.water_fill"
            ]
            return line["args"], solution

        population = replicated_large_scale_problem(RequestRate.MEDIUM, 50)
        args, solution = water_fill_args(population)
        # 20 tasks x 5 RBs fill the 100-RB pool; the other 980 are not scanned
        assert args == {"items": 1000, "admitted": 20, "radio_spent_at": 20}
        assert solution.admitted_task_count == 20
        roomy = replace(population, budgets=replace(population.budgets, radio_blocks=10**6))
        args, solution = water_fill_args(roomy)
        assert args["radio_spent_at"] is None
        assert args["admitted"] == solution.admitted_task_count > 20


class TestRounds:
    """Items standing for several members: one cascade, settled in rounds."""

    @settings(max_examples=200, deadline=None)
    @given(cascade=cascades(), data=st.data())
    def test_rounds_hold_every_member_within_the_pools(self, cascade, data):
        items, budgets = cascade
        members = [data.draw(st.integers(1, 40)) for _ in items]
        got = solve_branch(items, budgets, members)
        # a member count of one everywhere is the per-task cascade
        assert _bits(solve_branch(items, budgets, [1] * len(items))) == _bits(
            solve_branch(items, budgets)
        )
        # each item's rounds hold its members, in order
        rounds = iter(zip(got.admission, got.radio_blocks, got.members))
        radio = compute = 0.0
        for item, count in zip(items, members):
            held = 0
            while held < count:
                z, r, n = next(rounds)
                assert n >= 1 and (z > 0) == (r > 0)
                held += n
                radio += n * r
                compute += n * z * item.task.request_rate * item.compute_time_s
            assert held == count
        assert next(rounds, None) is None
        assert radio <= budgets.radio_blocks
        assert compute <= budgets.compute_time_s * (1 + 1e-6) + 1e-12

    def test_a_group_is_settled_in_as_few_rounds_as_the_pools_allow(self):
        """Ten members at r = 5 on 23 RBs: four fit whole, a fifth at the
        three RBs left is below r_min, and the rest are one rejected round."""
        item = _item(task_id=1, request_rate=5.0)
        assert item.min_latency_rbs == 4
        got = solve_branch([item], _budgets(radio=23), [10])
        assert (got.admission, got.radio_blocks, got.members) == ([1.0, 0.0], [5, 0], [4, 6])

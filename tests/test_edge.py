"""Unit tests for the edge platform: tickets, the resource ledger and the
controller."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.problem import Budgets, RadioModel
from repro.core.solution import Assignment, DOTSolution
from repro.edge.controller import (
    AdmissionError,
    AdmissionTicket,
    OffloaDNNController,
    ResourceLedger,
    admission_tickets,
)


def _solution(problem, picks) -> DOTSolution:
    """``{task id: (path id, z, r)}`` as a solution; other tasks rejected."""
    solution = DOTSolution()
    for task in problem.tasks:
        path_id, z, r = picks.get(task.task_id, (None, 0.0, 0))
        path = next(
            (p for p in problem.catalog.paths_for(task) if p.path_id == path_id), None
        )
        solution.assignments[task.task_id] = Assignment(task, path, z, r)
    return solution


def _with_budgets(problem, **changes):
    return replace(problem, budgets=replace(problem.budgets, **changes))


class TestAdmissionTickets:
    def test_tickets_are_read_off_the_solution(self, tiny_problem):
        solution = _solution(tiny_problem, {0: ("t0-cheap", 1.0, 5), 2: ("t2-rich", 0.5, 4)})
        tickets = admission_tickets(tiny_problem, solution)
        assert list(tickets) == [0, 1, 2]
        assert tickets[0] == AdmissionTicket(0, True, 1.0, 5.0, 5, "t0-cheap")
        assert tickets[1] == AdmissionTicket(1, False, 0.0, 0.0, 0, None)
        assert tickets[2] == AdmissionTicket(2, True, 0.5, 2.5, 4, "t2-rich")

    def test_memory_overflow_raises_by_name(self, tiny_problem):
        # the shared block (0.5 GB) once, plus two 0.1 GB heads
        problem = _with_budgets(tiny_problem, memory_gb=0.65)
        picks = {0: ("t0-cheap", 1.0, 5), 1: ("t1-cheap", 1.0, 5)}
        with pytest.raises(AdmissionError, match=r"\(1b\)") as caught:
            admission_tickets(problem, _solution(problem, picks))
        (violation,) = caught.value.violations
        assert "memory 0.700 GB" in violation
        # shared once: 0.7 GB fits a 0.7 GB pool
        admission_tickets(_with_budgets(problem, memory_gb=0.7), _solution(problem, picks))

    def test_compute_overflow_raises_by_name(self, tiny_problem):
        # 5 req/s x 14 ms of the rich path each
        problem = _with_budgets(tiny_problem, compute_time_s=0.1)
        picks = {0: ("t0-rich", 1.0, 5), 1: ("t1-rich", 1.0, 5)}
        with pytest.raises(AdmissionError, match=r"\(1c\)"):
            admission_tickets(problem, _solution(problem, picks))

    def test_slice_grid_overflow_raises_by_name(self, tiny_problem):
        # three half-admitted tasks: Σ z·r = 7.5 fits 12 RBs, but every
        # slice holds its full 5 RBs, and Σ r = 15 does not
        problem = _with_budgets(tiny_problem, radio_blocks=12)
        picks = {i: (f"t{i}-cheap", 0.5, 5) for i in range(3)}
        with pytest.raises(AdmissionError, match="slice grid") as caught:
            admission_tickets(problem, _solution(problem, picks))
        assert caught.value.violations == [
            "slice grid: slices hold 15 RBs of a 12-RB pool (1d)"
        ]

    def test_every_violation_is_listed(self, tiny_problem):
        problem = _with_budgets(
            tiny_problem, memory_gb=0.5, compute_time_s=0.01, radio_blocks=4
        )
        solution = _solution(problem, {0: ("t0-cheap", 1.0, 5)})
        with pytest.raises(AdmissionError) as caught:
            admission_tickets(problem, solution)
        assert [v[-4:] for v in caught.value.violations] == ["(1b)", "(1c)", "(1d)"]
        assert isinstance(caught.value, ValueError)


def _capacity(radio: int = 50, memory: float = 8.0) -> Budgets:
    return Budgets(
        compute_time_s=2.5, training_budget_s=1000.0, memory_gb=memory, radio_blocks=radio
    )


class TestLedger:
    def test_shared_block_held_once(self, tiny_problem):
        ledger = ResourceLedger(_capacity())
        picks = {i: (f"t{i}-cheap", 1.0, 5) for i in range(3)}
        ledger.hold(tiny_problem, _solution(tiny_problem, picks))
        block, users = ledger.blocks["shared"]
        assert users == {0, 1, 2} and block.memory_gb == 0.5
        remaining = ledger.remaining()
        assert remaining.memory_gb == pytest.approx(8.0 - 0.5 - 3 * 0.1)
        assert remaining.radio_blocks == 35
        assert remaining.compute_time_s == pytest.approx(2.5 - 3 * 5.0 * 0.006)
        assert remaining.training_budget_s == 1000.0

    def test_release_unloads_orphans(self, tiny_problem):
        ledger = ResourceLedger(_capacity())
        picks = {0: ("t0-cheap", 1.0, 5), 1: ("t1-rich", 0.5, 5)}
        ledger.hold(tiny_problem, _solution(tiny_problem, picks))
        assert ledger.release(0) == ["head0-cheap"]
        assert "shared" in ledger.blocks
        assert ledger.remaining().radio_blocks == 45
        assert ledger.release(1) == ["shared", "head1-rich"]
        assert ledger.blocks == {} and ledger.remaining() == _capacity()

    def test_a_freed_slice_re_admits(self, tiny_problem):
        ledger = ResourceLedger(_capacity(radio=5))
        ledger.hold(tiny_problem, _solution(tiny_problem, {0: ("t0-cheap", 1.0, 5)}))
        problem = _with_budgets(tiny_problem, **vars(ledger.remaining()))
        retry = _solution(problem, {1: ("t1-cheap", 1.0, 5)})
        with pytest.raises(AdmissionError, match="slice grid"):
            admission_tickets(problem, retry)
        ledger.release(0)
        problem = _with_budgets(tiny_problem, **vars(ledger.remaining()))
        assert admission_tickets(problem, retry)[1].admitted


class TestController:
    def _controller(self, problem) -> OffloaDNNController:
        return OffloaDNNController(
            ledger=ResourceLedger(problem.budgets),
            radio=RadioModel(default_bits_per_rb=350_000.0),
        )

    def test_workflow_admits_and_deploys(self, tiny_problem):
        controller = self._controller(tiny_problem)
        tickets = controller.handle_admission_requests(
            tiny_problem.tasks, tiny_problem.catalog
        )
        assert all(t.admitted for t in tickets.values())
        # the shared block is deployed once
        assert controller.ledger.blocks["shared"][1] == {0, 1, 2}
        # one slice per task
        assert controller.ledger.radio_blocks == {
            t.task_id: t.radio_blocks for t in tickets.values()
        }

    def test_tickets_carry_granted_rates(self, tiny_problem):
        controller = self._controller(tiny_problem)
        tickets = controller.handle_admission_requests(
            tiny_problem.tasks, tiny_problem.catalog
        )
        for task in tiny_problem.tasks:
            ticket = tickets[task.task_id]
            assert ticket.granted_rate == pytest.approx(
                ticket.admission_ratio * task.request_rate
            )
            assert ticket.path_id is not None

    def test_evict_task_frees_resources(self, tiny_problem):
        controller = self._controller(tiny_problem)
        controller.handle_admission_requests(tiny_problem.tasks, tiny_problem.catalog)
        before = controller.ledger.remaining()
        controller.evict_task(0)
        after = controller.ledger.remaining()
        assert after.memory_gb > before.memory_gb
        assert after.radio_blocks > before.radio_blocks
        assert 0 not in controller.ledger.radio_blocks

    def test_consistency_with_solver_solution(self, tiny_problem):
        controller = self._controller(tiny_problem)
        tickets = controller.handle_admission_requests(
            tiny_problem.tasks, tiny_problem.catalog
        )
        solution = controller.last_solution
        assert solution is not None
        for task in tiny_problem.tasks:
            assert tickets[task.task_id].admission_ratio == pytest.approx(
                solution.assignment(task).admission_ratio
            )

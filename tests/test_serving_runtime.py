"""End-to-end serving runtime: determinism, caching, overload, CLI."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.heuristic import OffloaDNNSolver
from repro.serving import (
    DropReason,
    ServingConfig,
    ServingMetrics,
    ServingRuntime,
)
from repro.workloads.smallscale import serving_small_scale_problem


@pytest.fixture(scope="module")
def runtime() -> ServingRuntime:
    problem = serving_small_scale_problem(5)
    return ServingRuntime.from_problem(
        problem, solver=OffloaDNNSolver(slice_margin_rbs=2)
    )


CONFIG = dict(duration_s=3.0, load_factor=2.0, seed=3)


class TestRuntime:
    def test_admits_and_serves(self, runtime):
        metrics = runtime.with_config(**CONFIG).run()
        assert metrics.completed > 0
        assert metrics.offered > metrics.completed  # overload sheds
        for task in runtime.problem.tasks:
            t = metrics.tasks[task.task_id]
            if t.completed:
                assert t.latency.p95_s > 0
                assert 0.0 <= t.deadline_miss_rate <= 1.0

    def test_bit_reproducible(self, runtime):
        a = runtime.with_config(**CONFIG).run()
        b = runtime.with_config(**CONFIG).run()
        assert a.total_compute_s == b.total_compute_s
        assert a.compute_saved_s == b.compute_saved_s
        assert a.completed == b.completed
        for tid in a.tasks:
            assert a.tasks[tid].latency == b.tasks[tid].latency
            assert a.tasks[tid].drops == b.tasks[tid].drops

    def test_poisson_bit_reproducible(self, runtime):
        a = runtime.with_config(poisson=True, **CONFIG).run()
        b = runtime.with_config(poisson=True, **CONFIG).run()
        assert a.total_compute_s == b.total_compute_s
        assert [t.latency for t in a.tasks.values()] == [
            t.latency for t in b.tasks.values()
        ]

    def test_prefix_cache_strictly_cheaper(self, runtime):
        """The acceptance criterion: shared frozen blocks ⇒ strict win."""
        with_cache = runtime.with_config(**CONFIG).run()
        without = runtime.with_config(prefix_cache=False, **CONFIG).run()
        assert with_cache.total_compute_s < without.total_compute_s
        assert with_cache.completed == without.completed
        assert with_cache.compute_saved_s > 0
        assert with_cache.prefix_merges > 0
        assert without.compute_saved_s == 0

    def test_gate_enforces_granted_rate_under_overload(self, runtime):
        metrics = runtime.with_config(**CONFIG).run()
        for task in runtime.problem.tasks:
            ticket = runtime.tickets[task.task_id]
            t = metrics.tasks[task.task_id]
            if not ticket.admitted or t.offered == 0:
                continue
            granted = ticket.admission_ratio / CONFIG["load_factor"]
            assert t.admitted / t.offered == pytest.approx(granted, abs=0.05)

    def test_throughput_plateaus(self, runtime):
        low = runtime.with_config(duration_s=3.0, load_factor=1.0, seed=3).run()
        high = runtime.with_config(duration_s=3.0, load_factor=3.0, seed=3).run()
        assert high.throughput_rps <= low.throughput_rps * 1.1

    def test_clock_reaches_horizon_even_when_idle(self):
        # a 1-task problem at ratio ~0 serves nothing; the metrics
        # horizon must still be the configured duration (run_until on
        # an empty queue)
        problem = serving_small_scale_problem(1)
        runtime = ServingRuntime.from_problem(
            problem, ServingConfig(duration_s=2.0, load_factor=1.0, seed=0)
        )
        metrics = runtime.run()
        assert metrics.duration_s >= 2.0

    def test_tiny_queue_backpressures(self, runtime):
        metrics = runtime.with_config(
            duration_s=3.0,
            load_factor=1.0,
            seed=0,
            queue_depth=1,
            batch_window_s=0.5,
            max_batch=1,
        ).run()
        drops = sum(
            t.drops[DropReason.QUEUE_FULL] + t.drops[DropReason.DEADLINE]
            for t in metrics.tasks.values()
        )
        assert drops > 0

    def test_promise_rows_set_1g_beside_delivered(self, runtime):
        from repro.core.latency import end_to_end_latency

        metrics = runtime.with_config(duration_s=3.0, seed=3).run()
        rows = runtime.promise_rows(metrics)
        admitted = [
            t for t in runtime.problem.tasks if runtime.tickets[t.task_id].admitted
        ]
        assert [row[0] for row in rows] == [t.task_id for t in admitted]
        assert len(rows[0]) == len(runtime.PROMISE_HEADER)
        for task, (_tid, limit_ms, promised_ms, p95_ms, on_time) in zip(admitted, rows):
            assignment = runtime.solution.assignment(task)
            assert promised_ms == pytest.approx(1e3 * end_to_end_latency(
                assignment.path, assignment.radio_blocks,
                runtime.problem.radio.bits_per_rb(task),
            ))
            # (1g): what was promised is within the task's target
            assert promised_ms <= limit_ms == task.max_latency_s * 1e3
            served = metrics.tasks[task.task_id]
            assert p95_ms == pytest.approx(served.latency.p95_s * 1e3)
            assert on_time == pytest.approx(
                100.0 * (served.completed - served.deadline_misses) / served.completed
            )

    def test_more_workers_not_slower(self, runtime):
        one = runtime.with_config(num_workers=1, **CONFIG).run()
        four = runtime.with_config(num_workers=4, **CONFIG).run()
        worst_one = max(t.latency.p95_s for t in one.tasks.values() if t.completed)
        worst_four = max(t.latency.p95_s for t in four.tasks.values() if t.completed)
        assert worst_four <= worst_one + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            ServingConfig(load_factor=0.0)
        with pytest.raises(ValueError):
            ServingConfig(max_batch=0)
        # rejected at construction, by name, not deep inside run()
        for bad in (
            {"result_return_s": -0.001},
            {"queue_depth": 0},
            {"num_workers": 0},
        ):
            (name,) = bad
            with pytest.raises(ValueError, match=name):
                ServingConfig(**bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", ["duration_s", "batch_window_s", "load_factor", "result_return_s"]
    )
    def test_config_rejects_non_finite(self, name, value):
        # each used to construct: an infinite window or result return ran
        # to 0 completed (or never returned), a NaN return completed
        # nothing, and a NaN / infinite horizon or load failed deep in
        # numpy without naming the field
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ServingConfig(**{name: value})


class TestMetricsShape:
    def test_summary_rows_cover_tasks(self, runtime):
        metrics = runtime.with_config(**CONFIG).run()
        rows = metrics.summary_rows()
        assert [row[0] for row in rows] == [t.task_id for t in runtime.problem.tasks]
        assert len(metrics.SUMMARY_HEADER) == len(rows[0])

    def test_empty_metrics_nan_safe(self):
        metrics = ServingMetrics(duration_s=1.0)
        assert metrics.completed == 0
        assert np.isnan(metrics.deadline_miss_rate)


class TestPublicApi:
    def test_top_level_exports(self):
        assert repro.ServingRuntime is ServingRuntime
        assert repro.ServingMetrics is ServingMetrics
        assert "ServingRuntime" in repro.__all__
        assert "ServingMetrics" in repro.__all__


class TestServeSimCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve-sim"])
        assert args.tasks == 5
        assert not args.no_prefix_cache

    def test_runs_and_reports(self, capsys):
        assert main(["serve-sim", "--tasks", "3", "--duration", "2",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "p95 ms" in out
        assert "deadline-miss rate" in out
        assert "prefix cache saved" in out
        assert "promised ms" in out and "on time %" in out

    def test_no_cache_flag(self, capsys):
        assert main(["serve-sim", "--tasks", "2", "--duration", "2",
                     "--no-prefix-cache"]) == 0
        out = capsys.readouterr().out
        assert "prefix cache off" in out
        assert "saved" not in out

    def test_deterministic_output(self, capsys):
        main(["serve-sim", "--tasks", "2", "--duration", "2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["serve-sim", "--tasks", "2", "--duration", "2", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

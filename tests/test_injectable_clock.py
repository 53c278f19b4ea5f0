"""Injectable clocks pin measured times exactly (no perf_counter flake).

The baselines and the profiler report wall-clock measurements
(``solve_time_s``, per-block ``compute_time_s``).  With the default
``time.perf_counter`` those are only testable as "positive"; with an
injected fake clock the exact values are asserted.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.baselines.greedy import GreedyNoSharingSolver
from repro.baselines.random_policy import RandomPathSolver
from repro.baselines.semoran import SemORANSolver
from repro.core.catalog import DEFAULT_BATCH_MARGINAL
from repro.dnn.profiler import profile_model, time_forward
from repro.dnn.resnet import build_resnet18
from repro.workloads.smallscale import small_scale_problem


class SteppingClock:
    """Returns 0, step, 2*step, ... — one tick per call."""

    def __init__(self, step: float = 1.0):
        self.step = step
        self.calls = 0

    def __call__(self) -> float:
        value = self.calls * self.step
        self.calls += 1
        return value


class ScriptedClock:
    """Start/stop reads in pairs: the k-th timed call lasts ``durations[k]``."""

    def __init__(self, durations):
        self.durations = list(durations)
        self.calls = 0

    def __call__(self) -> float:
        timing, stop = divmod(self.calls, 2)
        self.calls += 1
        return 10.0 * timing + (self.durations[timing] if stop else 0.0)


class TestBaselineSolveTime:
    @pytest.mark.parametrize(
        "solver_cls",
        [GreedyNoSharingSolver, RandomPathSolver, SemORANSolver],
    )
    def test_solve_time_is_clock_delta(self, solver_cls):
        problem = small_scale_problem(3, seed=0)
        clock = SteppingClock(step=0.125)
        solver = solver_cls(clock=clock)
        solution = solver.solve(problem)
        # exactly two reads: one at entry, one at exit
        assert clock.calls == 2
        assert solution.solve_time_s == 0.125

    def test_default_clock_still_measures(self):
        problem = small_scale_problem(2, seed=0)
        solution = GreedyNoSharingSolver().solve(problem)
        assert solution.solve_time_s >= 0.0


class TestProfilerClock:
    def test_time_forward_median_of_fake_samples(self):
        # start/end pairs: (0,1), (2,3), (4,5) -> samples [1, 1, 1]
        clock = SteppingClock(step=1.0)
        calls = []
        elapsed = time_forward(
            lambda x: calls.append(x), None, repeats=3, warmup=2, clock=clock
        )
        assert elapsed == 1.0
        assert clock.calls == 6  # warmup is never timed
        assert len(calls) == 5  # 2 warmup + 3 timed

    def test_time_forward_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_forward(lambda x: x, None, repeats=0)

    def test_profile_model_uses_injected_clock(self):
        model = build_resnet18(num_classes=10, input_size=16, width=8, seed=0)
        clock = SteppingClock()
        profile = profile_model(model, repeats=1, warmup=0, clock=clock)
        # every block's single timed forward spans exactly one tick
        assert all(b.compute_time_s == 1.0 for b in profile.blocks)
        assert profile.total_compute_time_s == float(len(profile.blocks))
        # ... and is the only thing timed: no batch sizes asked for, no
        # batch law measured
        assert clock.calls == 2 * len(profile.blocks)
        assert all(b.batch_marginal == DEFAULT_BATCH_MARGINAL for b in profile.blocks)

    def test_batch_law_is_fitted_to_the_scripted_timings(self):
        # per block: t(1), t(8), t(32) in the order the profiler times them
        scripted = [
            (1.0, 4.5, 16.5),     # 0.5 at both sizes
            (0.25, 2.35, 9.55),   # 1.2 at both: worse than serial
            (2.0, 10.4, 57.8),    # 0.6 at 8, 0.9 at 32: least squares between
            (1.0, 0.5, 0.75),     # a batch faster than one sample: clamped to 0
            (0.5, 0.5, 0.5),      # perfect amortization
            (1.0, 8.0, 32.0),     # serial
        ]
        model = build_resnet18(num_classes=10, input_size=16, width=8, seed=0)
        clock = ScriptedClock(t for block in scripted for t in block)
        profile = profile_model(
            model, repeats=1, warmup=0, clock=clock, batch_sizes=(8, 32)
        )
        assert clock.calls == 2 * 3 * len(scripted)

        def least_squares(t1, t8, t32):
            # argmin_m Σ (t1·(1 + (n − 1)·m) / t(n) − 1)², in exact arithmetic
            points = [(n - 1, Fraction(t1) / Fraction(tn)) for n, tn in ((8, t8), (32, t32))]
            return sum(a * x * (1 - a) for x, a in points) / sum(
                (a * x) ** 2 for x, a in points
            )

        assert [b.compute_time_s for b in profile.blocks] == [t[0] for t in scripted]
        fitted = [b.batch_marginal for b in profile.blocks]
        assert fitted == pytest.approx(
            [max(0.0, float(least_squares(*t))) for t in scripted], rel=1e-12
        )
        assert fitted[:2] == pytest.approx([0.5, 1.2], rel=1e-12)
        assert 0.6 < fitted[2] < 0.9
        assert fitted[3:] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

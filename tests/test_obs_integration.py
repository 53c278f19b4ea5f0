"""End-to-end observability: determinism, parity, span accounting.

The load-bearing promises of ``repro.obs``:

* DES traces are **deterministic** — two identical serving runs emit
  byte-identical virtual-domain span logs (wall spans are real time and
  excluded);
* tracing is **non-invasive** — metrics with a session attached are
  bit-identical to metrics without one;
* request spans **account for the latency** — one request's child spans
  partition its created→completed interval, so they sum to the
  end-to-end latency (the acceptance criterion).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.heuristic import OffloaDNNSolver
from repro.emulator.scenario import run_small_scale_emulation
from repro.obs import ObsSession, jsonl_lines, use_tracer, validate_chrome_trace
from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.workloads.smallscale import serving_small_scale_problem


def _runtime(obs: ObsSession | None = None) -> ServingRuntime:
    problem = serving_small_scale_problem(3, seed=0)
    config = ServingConfig(duration_s=1.0, num_workers=2, seed=0)
    if obs is not None:
        with use_tracer(obs.wall):
            runtime = ServingRuntime.from_problem(
                problem, config=config, solver=OffloaDNNSolver(slice_margin_rbs=2)
            )
    else:
        runtime = ServingRuntime.from_problem(
            problem, config=config, solver=OffloaDNNSolver(slice_margin_rbs=2)
        )
    runtime.obs = obs
    return runtime


def _float_identical(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestServingTraceDeterminism:
    def test_two_runs_identical_virtual_jsonl(self):
        lines = []
        for _ in range(2):
            obs = ObsSession()
            _runtime(obs).run()
            lines.append(jsonl_lines([obs.virtual]))
        assert lines[0] == lines[1]
        assert len(lines[0]) > 50  # an actual workload was traced

    def test_rerun_on_same_runtime_identical(self):
        """run() rebuilds all DES state, so even reruns are identical."""
        runtime = _runtime(ObsSession())
        runtime.run()
        first = jsonl_lines([runtime.obs.virtual])
        runtime.obs = ObsSession()
        runtime.run()
        assert jsonl_lines([runtime.obs.virtual]) == first


class TestServingMetricsParity:
    def test_metrics_bit_identical_with_and_without_obs(self):
        baseline = _runtime(obs=None).run()
        observed = _runtime(ObsSession()).run()
        assert baseline.duration_s == observed.duration_s
        assert baseline.total_compute_s == observed.total_compute_s
        assert baseline.compute_saved_s == observed.compute_saved_s
        assert baseline.windows == observed.windows
        assert baseline.prefix_merges == observed.prefix_merges
        assert set(baseline.tasks) == set(observed.tasks)
        for task_id, expected in baseline.tasks.items():
            actual = observed.tasks[task_id]
            assert expected.offered == actual.offered
            assert expected.completed == actual.completed
            assert expected.drops == actual.drops
            for name in ("count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"):
                assert _float_identical(
                    getattr(expected.latency, name), getattr(actual.latency, name)
                ), f"task{task_id}.latency.{name}"

    def test_registry_holds_per_task_instruments_after_run(self):
        obs = ObsSession()
        metrics = _runtime(obs).run()
        task_id = next(t for t in metrics.tasks if metrics.tasks[t].completed > 0)
        histogram = obs.registry.histogram(f"task{task_id}.latency_s")
        assert histogram.count == metrics.tasks[task_id].completed
        assert obs.registry.counter(f"task{task_id}.offered").value == (
            metrics.tasks[task_id].offered
        )
        # the DES sampler left gauge series behind
        series = obs.registry.gauge("serving.outstanding").series
        assert len(series) > 1
        assert all(t1 <= t2 for (t1, _), (t2, _) in zip(series, series[1:]))


class TestRequestSpanAccounting:
    """Acceptance: spans of one request nest and sum to its latency."""

    def _request_tracks(self, obs: ObsSession) -> dict[str, dict[str, object]]:
        tracks: dict[str, dict[str, object]] = {}
        for record in obs.virtual.records:
            if record.phase != "X" or not record.track.startswith("task"):
                continue
            tracks.setdefault(record.track, {})[record.name] = record
        return {
            track: spans for track, spans in tracks.items() if "request" in spans
        }

    def test_children_partition_and_sum_to_latency(self):
        obs = ObsSession()
        metrics = _runtime(obs).run()
        tracks = self._request_tracks(obs)
        assert metrics.completed > 0
        assert len(tracks) == metrics.completed
        children = ("uplink", "queue", "batch", "execute", "complete")
        for track, spans in tracks.items():
            parent = spans["request"]
            assert set(spans) == {"request", *children}
            # children tile the parent interval exactly, in order
            cursor = parent.ts
            for name in children:
                child = spans[name]
                assert child.ts == pytest.approx(cursor, abs=1e-9), (track, name)
                assert child.dur >= 0.0
                cursor = child.ts + child.dur
            assert cursor == pytest.approx(parent.ts + parent.dur, abs=1e-9)
            # ... so their durations sum to the end-to-end latency
            assert sum(spans[n].dur for n in children) == pytest.approx(
                parent.dur, abs=1e-9
            )

    def test_chrome_export_of_run_validates(self, tmp_path):
        obs = ObsSession()
        _runtime(obs).run()
        path = tmp_path / "trace.json"
        obs.write_trace(path)
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []
        request_spans = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "request"
        ]
        assert request_spans and all(e["pid"] == 2 for e in request_spans)


class TestEmulatorObservability:
    def test_frame_spans_partition_lifetime(self):
        obs = ObsSession()
        problem, result = run_small_scale_emulation(
            num_tasks=2, duration_s=3.0, obs=obs
        )
        frames: dict[str, dict[str, object]] = {}
        for record in obs.virtual.records:
            if record.phase == "X" and ".frame" in record.track:
                frames.setdefault(record.track, {})[record.name] = record
        assert frames
        stages = ("uplink", "gpu_queue", "gpu_execute", "return")
        for track, spans in frames.items():
            parent = spans["frame"]
            assert set(spans) == {"frame", *stages}
            cursor = parent.ts
            for name in stages:
                assert spans[name].ts == pytest.approx(cursor, abs=1e-9)
                cursor = spans[name].ts + spans[name].dur
            assert cursor == pytest.approx(parent.ts + parent.dur, abs=1e-9)

    def test_emulator_trace_deterministic(self):
        lines = []
        for _ in range(2):
            obs = ObsSession()
            run_small_scale_emulation(num_tasks=2, duration_s=3.0, obs=obs)
            lines.append(jsonl_lines([obs.virtual]))
        assert lines[0] == lines[1]
        assert len(lines[0]) > 10

    def test_task_statistics_bit_identical_with_registry(self):
        obs = ObsSession()
        problem, result = run_small_scale_emulation(
            num_tasks=2, duration_s=3.0, obs=obs
        )
        plain = result.statistics(problem)
        instrumented = result.statistics(problem, registry=obs.registry)
        assert set(plain) == set(instrumented)
        for task_id in plain:
            for name in (
                "frames",
                "mean_latency_s",
                "p95_latency_s",
                "max_latency_s",
                "mean_uplink_s",
                "mean_compute_s",
                "goodput_fps",
                "deadline_miss_fraction",
            ):
                assert _float_identical(
                    float(getattr(plain[task_id], name)),
                    float(getattr(instrumented[task_id], name)),
                ), f"task{task_id}.{name}"
        # and the instruments survive in the session registry
        stats = instrumented[next(iter(instrumented))]
        if stats.frames:
            histogram = obs.registry.histogram(f"emu.task{stats.task_id}.latency_s")
            assert histogram.count == stats.frames

    def test_solver_spans_on_wall_tracer(self):
        obs = ObsSession()
        run_small_scale_emulation(num_tasks=2, duration_s=3.0, obs=obs)
        names = {r.name for r in obs.wall.records}
        assert "solver.tree_build" in names
        assert "solver.select_branch" in names
        assert "solver.allocate" in names
        # one clique-build span per solve, not one per task
        builds = [r for r in obs.wall.records if r.name == "solver.clique_build"]
        trees = [r for r in obs.wall.records if r.name == "solver.tree_build"]
        assert len(builds) == len(trees) >= 1
        assert set(builds[0].args) == {"tasks", "built", "variants"}
        assert builds[0].args["tasks"] == builds[0].args["built"] == 2
        assert builds[0].args["variants"] > 0

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
from repro.obs import ObsSession, jsonl_lines, use_tracer, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.serving import TaskServingMetrics, fig11_runtime
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


class TestWindowSpans:
    """A window cut into jobs is one ``window`` span per job, each on the
    track of the worker that ran it."""

    def test_job_spans_tile_their_workers(self):
        obs = ObsSession()
        runtime = _runtime(obs).with_config(
            num_workers=3, batch_window_s=0.05, poisson=True, duration_s=4.0
        )
        metrics = runtime.run()
        spans = [r for r in obs.virtual.records if r.name == "window"]
        # some window was cut, and nothing but workers ran jobs
        assert len(spans) > metrics.windows > 10
        by_worker: dict[str, list] = {}
        for span in spans:
            by_worker.setdefault(span.track, []).append(span)
        assert set(by_worker) <= {f"worker{n}" for n in range(3)}
        assert len(by_worker) > 1
        # a worker runs one job at a time (one span of the whole window's
        # cost on one track would show it more than 100 % busy)
        for track in by_worker.values():
            track.sort(key=lambda span: span.ts)
            for earlier, later in zip(track, track[1:]):
                assert earlier.ts + earlier.dur <= later.ts + 1e-9
        assert sum(span.dur for span in spans) == pytest.approx(
            metrics.total_compute_s, rel=1e-9
        )
        assert sum(span.args["requests"] for span in spans) == metrics.completed
        assert sum(span.args["merges"] for span in spans) == metrics.prefix_merges
        assert sum(span.args["saved_s"] for span in spans) == pytest.approx(
            metrics.compute_saved_s, rel=1e-9
        )


_PHASES = ("uplink", "queue", "batch", "execute", "complete")


def _request_tracks(obs: ObsSession) -> dict[str, dict[str, object]]:
    """Per request track: its spans by name, the children checked to tile
    the parent ``request`` span exactly, in order."""
    tracks: dict[str, dict[str, object]] = {}
    for record in obs.virtual.records:
        if record.phase == "X" and record.track.startswith("task"):
            tracks.setdefault(record.track, {})[record.name] = record
    tracks = {track: spans for track, spans in tracks.items() if "request" in spans}
    for track, spans in tracks.items():
        parent = spans["request"]
        assert set(spans) == {"request", *_PHASES}
        cursor = parent.ts
        for name in _PHASES:
            child = spans[name]
            assert child.ts == pytest.approx(cursor, abs=1e-9), (track, name)
            assert child.dur >= 0.0
            cursor = child.ts + child.dur
        assert cursor == pytest.approx(parent.ts + parent.dur, abs=1e-9)
        # ... so their durations sum to the end-to-end latency
        assert sum(spans[n].dur for n in _PHASES) == pytest.approx(parent.dur, abs=1e-9)
    return tracks


class TestRequestSpanAccounting:
    """Acceptance: spans of one request nest and sum to its latency."""

    def test_children_partition_and_sum_to_latency(self):
        obs = ObsSession()
        metrics = _runtime(obs).run()
        assert len(_request_tracks(obs)) == metrics.completed > 0

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


def _observed_fig11() -> tuple[ObsSession, ServingRuntime]:
    """The Fig. 11 configuration (2 tasks, 3 s) run under a session."""
    obs = ObsSession()
    with use_tracer(obs.wall):
        runtime = fig11_runtime(num_tasks=2, duration_s=3.0)
    runtime.obs = obs
    runtime.run()
    return obs, runtime


class TestEmulatorObservability:
    def test_frame_spans_partition_lifetime(self):
        obs, runtime = _observed_fig11()
        frames = _request_tracks(obs)
        assert len(frames) == len(runtime.last_requests) > 0
        # one frame per job: a frame never waits for a batch to fill
        assert all(spans["batch"].dur == 0.0 for spans in frames.values())

    def test_emulator_trace_deterministic(self):
        lines = [jsonl_lines([_observed_fig11()[0].virtual]) for _ in range(2)]
        assert lines[0] == lines[1]
        assert len(lines[0]) > 10

    def test_task_statistics_bit_identical_with_registry(self):
        obs, runtime = _observed_fig11()
        for task_id in runtime.tickets:
            records = [r for r in runtime.last_requests if r.task_id == task_id]
            plain = TaskServingMetrics.from_requests(task_id, records)
            shared = TaskServingMetrics.from_requests(task_id, records, MetricsRegistry())
            assert repr(plain) == repr(shared)
            # and the run left the same numbers in the session registry
            histogram = obs.registry.histogram(f"task{task_id}.latency_s")
            assert histogram.count == plain.completed == len(records)
            assert histogram.mean == plain.latency.mean_s

    def test_solver_spans_on_wall_tracer(self):
        obs, _ = _observed_fig11()
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

"""Tests of the benchmark harness itself (``pytest benchmarks/e2e``).

Outside the tier-1 ``testpaths``; they check the instrument, not the
program: span arithmetic, the percentile rule, that the verification
really trips, ``compare`` verdicts, that ``BENCHMARK.json`` declares
what ``run.py`` reports, and a 1/20-size smoke of every workload.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import calibration
import checks
import compare
import run
import stats
import tracer as tracing

HERE = pathlib.Path(__file__).resolve().parent


class FakeClock:
    """Advances only when told to, so span times are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_span_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf = tr.wrap(leaf, "leaf")

    def middle():
        clock.now += 1.0
        leaf()
        leaf()

    middle = tr.wrap(middle, "middle")

    def root():
        clock.now += 0.5
        middle()
        clock.now += 0.25

    tr.wrap(root, "root")()
    totals = tr.take()
    assert totals["leaf"] == (2, 4.0, 4.0)
    assert totals["middle"] == (1, 5.0, 1.0)
    # root's children cover middle's 5 s once, not leaf's 4 s again
    assert totals["root"] == (1, 5.75, 0.75)
    parents = {span[0]: span[1] for span in tr.spans}
    names = {span[0]: span[2] for span in tr.spans}
    assert [names[parents[i]] for i in parents if names[i] == "leaf"] == ["middle"] * 2
    assert tr.take() == {}


def test_span_closes_when_the_callable_raises():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap(boom, "boom")()
    assert tr.take()["boom"] == (1, 1.0, 1.0)
    assert tr._stack == []


def test_unresolved_wrap_target_warns_and_is_not_an_error(capsys):
    tr = tracing.Tracer()
    tr.install(
        {
            "repro.core.no_such_function": "core.gone",
            "repro.no_such_module.f": "gone.f",
            "repro.serving.runtime.ServingRuntime.from_problem": "edge.admit",
        }
    )
    try:
        assert tr.unresolved == ["repro.core.no_such_function", "repro.no_such_module.f"]
        assert "not found" in capsys.readouterr().err
        import repro.serving.runtime as runtime

        # a wrapped classmethod is still a classmethod
        assert isinstance(vars(runtime.ServingRuntime)["from_problem"], classmethod)
    finally:
        tr.uninstall()
    assert not hasattr(runtime.ServingRuntime.from_problem, "__wrapped__")


@pytest.mark.parametrize(
    "n, wanted, expected",
    [(4000, 99, 99), (1000, 99, 99), (999, 99, 95), (240, 90, 90), (240, 99, 95),
     (100, 99, 90), (40, 99, 75), (19, 99, 50), (3, 90, 50)],
)
def test_percentile_needs_ten_samples_beyond_it(n, wanted, expected):
    assert stats.tail_percentile(n, wanted) == expected


def test_summarize_reports_sample_count_and_tail():
    summary = stats.summarize([float(i) for i in range(1, 201)], 99)
    assert summary["n"] == 200 and summary["tail_pct"] == 95 and summary["beyond"] == 10
    assert summary["p50"] == 100.5


def test_an_operation_is_scaled_by_the_samples_in_and_next_to_it():
    times = [float(t) for t in range(20)]
    samples = [100.0 + t for t in range(20)]
    # inside [8.5, 10.5]: samples 9 and 10; NEAR on each side of them
    near = calibration.near(times, samples, 8.5, 10.5)
    assert near == samples[9 - calibration.NEAR : 11 + calibration.NEAR]
    # an operation shorter than the period still finds its neighbours
    assert calibration.near(times, samples, 13.2, 13.3) == samples[
        14 - calibration.NEAR : 14 + calibration.NEAR
    ]
    assert calibration.near(times, samples, 0.0, 0.5) == samples[: 1 + calibration.NEAR]


def test_the_clock_stands_still_while_a_sample_is_taken():
    calibrator = calibration.Calibrator()
    calibrator.sample()
    before = calibration.clock()
    calibrator.sample()
    passed = calibration.clock() - before
    assert passed < 0.5e-3 * calibrator.samples_ms[-1]  # the sample ran the kernel twice
    assert calibrator.times[-1] == pytest.approx(before, abs=passed)


def test_stream_slots_do_not_depend_on_how_many_frames_of_a_kind_were_timed():
    from workloads import MeasuredStream, Op, Verdicts

    small_shared, small_single, big = (1, "fp32", True), (1, "fp32", False), (8, "fp32", False)
    seconds = {small_shared: 0.030, small_single: 0.010, big: 0.200}

    def measured(frames):
        kinds = [kind for kind, count in frames.items() for _ in range(count)]
        return MeasuredStream(
            ops=[Op(0.0, 0.0, seconds[kind]) for kind in kinds], rated=[], work=0.0,
            quality=1.0, reps=1, verdicts=Verdicts(), kinds=kinds,
            block_cells=[small_shared] * 2 + [small_single] * 2 + [big],
        )

    # one block: 2 x 5 + 2 x 1 + 8 inferences in 2 x 30 + 2 x 10 + 200 ms
    expected = (0.020, 20 / 0.280)
    assert measured({small_shared: 2, small_single: 2, big: 1}).slots() == pytest.approx(expected)
    assert measured({small_shared: 7, small_single: 1, big: 5}).slots() == pytest.approx(expected)
    assert measured({small_shared: 2, small_single: 2, big: 1}).slots(lambda op: 0.5) == (
        pytest.approx((0.010, 20 / 0.140))
    )


def _record(created=0.0, completed=0.4, dropped=False):
    nan = float("nan")
    return SimpleNamespace(
        created_at=created, uplink_done_at=created + 0.1, dispatched_at=created + 0.2,
        started_at=created + 0.2, completed_at=nan if dropped else completed,
        deadline_at=created + 0.5, drop_reason="deadline" if dropped else None,
    )


def test_conservation_holds_on_clean_records_and_trips_on_doctored_ones():
    records = [_record(), _record(1.0, 1.4), _record(2.0, dropped=True)]
    cols = checks.record_arrays(records)
    assert checks.check_records(cols, offered=5, gated=2) == []
    assert checks.check_conservation(5, 2, {"deadline": 1, "queue_full": 0}, 2) == []

    # a record that is both dropped and completed
    doctored = records + [SimpleNamespace(**{**vars(_record(3.0, 3.4)), "drop_reason": "deadline"})]
    assert any(
        "dropped and completed" in v
        for v in checks.check_records(checks.record_arrays(doctored), 6, 2)
    )
    # a request that vanished: neither dropped nor completed
    lost = records + [SimpleNamespace(**{**vars(_record(3.0)), "completed_at": math.nan})]
    assert any("neither" in v for v in checks.check_records(checks.record_arrays(lost), 6, 2))
    # a missing record, and counts that do not add up
    assert checks.check_records(cols, offered=6, gated=2)
    assert checks.check_conservation(6, 2, {"deadline": 1}, 2)


def test_timestamps_must_move_forward():
    backwards = _record()
    backwards.started_at = 0.05  # before dispatch
    violations = checks.check_records(checks.record_arrays([backwards]), 1, 0)
    assert violations and "dispatched_at > started_at" in violations[0]


def test_other_checks_trip():
    assert checks.check_utilisation("pool", 1.2)
    assert not checks.check_utilisation("pool", 1.0)
    assert checks.check_repeatable([(1, 2), (1, 3)])
    assert not checks.check_repeatable([(1, 2), (1, 2)])
    assert checks.check_int8_agreement(7, 10)
    assert not checks.check_int8_agreement(8, 10)


def test_compare_verdicts():
    # host clock: worse than the bound regresses, inside it is ok
    assert compare.verdict([10.0], [11.5], "lower", 0.10, "host")[0] == "regressed"
    assert compare.verdict([10.0], [10.5], "lower", 0.10, "host")[0] == "ok"
    assert compare.verdict([100.0], [85.0], "higher", 0.10, "host")[0] == "regressed"
    # spread wider than the bound: unresolved, unless every B run wins
    noisy = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert compare.verdict(noisy, [x + 0.2 for x in noisy], "lower", 0.10, "host")[0] == "unresolved"
    assert compare.verdict(noisy, [x - 6.0 for x in noisy], "lower", 0.10, "host")[0] == "ok"
    # des and exact metrics compare exactly
    assert compare.verdict([0.94], [0.9399], "higher", 0.05, "des")[0] == "regressed"
    assert compare.verdict([0.94], [0.94], "higher", 0.05, "exact")[0] == "ok"


def test_benchmark_json_declares_what_run_reports():
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in benchmark["end_to_end"]
    } == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in benchmark["per_layer"]
    } == {name: spec[:2] for name, spec in run.PER_LAYER.items()}
    assert set(run.SPAN_METRICS) <= set(run.PER_LAYER)
    assert {span for span, _stat in run.SPAN_METRICS.values()} <= set(tracing.WRAPS.values())


def test_quick_smoke_runs_every_workload_in_30_s(tmp_path):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--quick", "--seed", "7",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(result["workloads"]) == [w["name"] for w in benchmark["workloads"]]
    for name, (record,) in result["workloads"].items():
        assert record["failed"] == 0 and record["attempted"] >= 1, (name, record["failures"])
        assert set(record["end_to_end"]) == set(run.END_TO_END)
        assert all(entry["value"] > 0 for entry in record["end_to_end"].values()), name
    assert compare.main([str(tmp_path / "result.json")] * 2) == 0
    assert elapsed < 30.0, f"--quick took {elapsed:.1f} s"


@pytest.mark.parametrize("name", ["solve_population", "serve_overload", "cluster_chain", "execute_real"])
def test_quick_traced_run_reports_every_layer_and_agrees_with_untraced(name, tmp_path):
    detail = tmp_path / "detail.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--quick",
         "--trace", "1", "--seed", "7", "--detail", str(detail)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, done.stderr
    assert set(line["metrics"]) == set(run.PER_LAYER)
    layers = json.loads(detail.read_text())["per_layer"]
    if name == "serve_overload":
        assert min(
            layers["serving.gated"], layers["serving.drop_queue_full"],
            layers["serving.drop_deadline"], layers["serving.queue_pop_calls"],
        ) > 0
    if name == "cluster_chain":
        assert layers["cluster.split_paths"] > 0 and layers["cluster.dispatch_s"] > 0
    if name == "solve_population":
        assert layers["core.aggregate_s"] > 0 and layers["workloads.build_s"] > 0
    if name == "execute_real":
        assert layers["dnn.compile_s"] > 0 and layers["dnn.cache_hit_share"] > 0.5

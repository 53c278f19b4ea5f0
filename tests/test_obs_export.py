"""Exporter tests: Chrome trace schema, JSONL round-trip, flamegraph."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.export import (
    chrome_trace,
    flame_summary,
    jsonl_lines,
    load_records,
    phase_breakdown,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _sample_tracers() -> tuple[Tracer, Tracer]:
    wall = Tracer(domain="wall")
    wall.record("solve", 100.0, 0.5, cat="solver", track="solver")
    wall.record("allocate", 100.1, 0.2, cat="solver", track="solver")
    virtual = Tracer(domain="virtual")
    virtual.record("request", 1.0, 0.3, cat="serving", track="req0")
    virtual.record("uplink", 1.0, 0.1, cat="serving", track="req0")
    virtual.record("execute", 1.1, 0.2, cat="serving", track="req0")
    virtual.event_at("drop", 2.0, cat="serving", track="task1", args={"request": 5})
    return wall, virtual


class TestChromeTrace:
    def test_valid_by_own_validator(self):
        wall, virtual = _sample_tracers()
        trace = chrome_trace([wall, virtual])
        assert validate_chrome_trace(trace) == []
        assert trace["displayTimeUnit"] == "ms"

    def test_domain_pids_and_wall_rebase(self):
        wall, virtual = _sample_tracers()
        trace = chrome_trace([wall, virtual])
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        wall_spans = {e["name"]: e for e in spans if e["pid"] == 1}
        virtual_spans = {e["name"]: e for e in spans if e["pid"] == 2}
        # wall timestamps rebase to the first span; µs, rounded
        assert wall_spans["solve"]["ts"] == 0.0
        assert wall_spans["allocate"]["ts"] == pytest.approx(0.1e6)
        # virtual timestamps stay absolute DES time
        assert virtual_spans["request"]["ts"] == pytest.approx(1.0e6)

    def test_parent_sorted_before_children(self):
        _, virtual = _sample_tracers()
        trace = chrome_trace([virtual])
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert names.index("request") < names.index("uplink")

    def test_instant_events_marked(self):
        _, virtual = _sample_tracers()
        trace = chrome_trace([virtual])
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["s"] == "t"
        assert instants[0]["args"] == {"request": 5}

    def test_track_thread_metadata(self):
        _, virtual = _sample_tracers()
        trace = chrome_trace([virtual])
        threads = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert threads == ["req0", "task1"]

    def test_gauge_series_become_counter_events(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth").sample(0.5, 3.0)
        registry.gauge("queue.depth").sample(1.0, 1.0)
        trace = chrome_trace([], registry=registry)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert [(e["ts"], e["args"]["value"]) for e in counters] == [
            (0.5e6, 3.0),
            (1.0e6, 1.0),
        ]
        assert all(e["pid"] == 2 for e in counters)  # virtual by default


class TestValidator:
    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]

    def test_negative_duration_flagged(self):
        trace = {
            "traceEvents": [
                {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0, "dur": -1}
            ]
        }
        assert any("bad dur" in p for p in validate_chrome_trace(trace))

    def test_non_monotonic_track_flagged(self):
        events = [
            {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 5.0, "dur": 1.0},
            {"ph": "X", "name": "b", "pid": 1, "tid": 1, "ts": 2.0, "dur": 1.0},
        ]
        assert any(
            "not monotonic" in p
            for p in validate_chrome_trace({"traceEvents": events})
        )

    def test_missing_keys_flagged(self):
        trace = {"traceEvents": [{"ph": "X", "ts": 0.0, "dur": 1.0}]}
        problems = validate_chrome_trace(trace)
        assert any("missing 'name'" in p for p in problems)
        assert any("missing 'pid'" in p for p in problems)


class TestRoundTrips:
    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        wall, virtual = _sample_tracers()
        path = tmp_path / "trace.jsonl"
        write_jsonl([wall, virtual], path)
        loaded = load_records(path)
        by_domain = {t.domain: t for t in loaded}
        assert by_domain["wall"].records == wall.records
        assert by_domain["virtual"].records == virtual.records

    def test_jsonl_deterministic_bytes(self, tmp_path):
        wall, virtual = _sample_tracers()
        assert jsonl_lines([wall, virtual]) == jsonl_lines([wall, virtual])

    def test_chrome_round_trip_preserves_structure(self, tmp_path):
        wall, virtual = _sample_tracers()
        path = tmp_path / "trace.json"
        write_chrome_trace([wall, virtual], path)
        loaded = {t.domain: t for t in load_records(path)}
        names = sorted(r.name for r in loaded["virtual"].records)
        assert names == ["drop", "execute", "request", "uplink"]
        request = next(
            r for r in loaded["virtual"].records if r.name == "request"
        )
        assert request.track == "req0"
        assert request.ts == pytest.approx(1.0, abs=1e-6)
        assert request.dur == pytest.approx(0.3, abs=1e-6)

    def test_load_rejects_invalid_chrome_trace(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": "nope"}))
        with pytest.raises(ValueError, match="invalid chrome trace"):
            load_records(path)


class TestLoaderRejectsMalformedInput:
    """A trace that does not load is a ``ValueError`` naming its line or
    event, never a ``KeyError`` or a span with a non-numeric timestamp."""

    @staticmethod
    def _load(tmp_path, text: str):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        return load_records(path)

    def test_jsonl_line_without_name(self, tmp_path):
        text = '{"name": "a", "ts": 1.0}\n{"ts": 2.0}\n'
        with pytest.raises(ValueError, match="trace line 2: missing 'name'"):
            self._load(tmp_path, text)

    def test_jsonl_non_numeric_ts(self, tmp_path):
        with pytest.raises(ValueError, match="trace line 1: bad ts 'x'"):
            self._load(tmp_path, '{"name": "a", "ts": "x"}')

    def test_chrome_thread_name_without_args(self, tmp_path):
        events = [
            {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1.0},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError, match="event 1: thread_name without"):
            self._load(tmp_path, json.dumps({"traceEvents": events}))


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=4)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: objects shaped like spans and events: the loader's keys, any values
_SPANS = st.dictionaries(
    st.sampled_from(
        ["name", "ts", "dur", "cat", "track", "ph", "args", "domain", "pid", "tid"]
    ),
    st.sampled_from(["X", "i", "M", "thread_name", 0, 1, 2.5, {"name": "t"}]) | _VALUES,
    max_size=10,
)
_LINES = st.lists(
    _SPANS.map(json.dumps)
    | _VALUES.map(json.dumps)
    | st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
    max_size=5,
).map("\n".join)
_CHROME = st.lists(_SPANS | _VALUES, max_size=5).map(
    lambda events: json.dumps({"traceEvents": events})
)


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_LINES | _CHROME)
def test_any_trace_loads_to_numeric_spans_or_a_value_error(tmp_path, text):
    path = tmp_path / "fuzz.txt"
    path.write_text(text)
    try:
        tracers = load_records(path)
    except ValueError:
        return
    for tracer in tracers:
        assert isinstance(tracer, Tracer) and isinstance(tracer.domain, str)
        for record in tracer.records:
            assert isinstance(record.name, str)
            for value in (record.ts, record.dur):
                assert isinstance(value, (int, float)) and not isinstance(value, bool)
                assert math.isfinite(value)


class TestSummaries:
    def test_flame_summary_nests_by_containment(self):
        _, virtual = _sample_tracers()
        text = flame_summary([virtual])
        lines = text.splitlines()
        request_line = next(l for l in lines if "request" in l)
        uplink_line = next(l for l in lines if "uplink" in l)
        # children are indented deeper than the parent
        parent_indent = len(request_line) - len(request_line.lstrip())
        child_indent = len(uplink_line) - len(uplink_line.lstrip())
        assert child_indent > parent_indent
        # parent self time = total - children = 0.3 - (0.1 + 0.2) = 0
        assert "0.000" in request_line.split()[-1]

    def test_phase_breakdown_totals(self):
        wall, virtual = _sample_tracers()
        phases = phase_breakdown([wall, virtual])
        assert phases["wall.solve"] == {"count": 1, "total_s": 0.5}
        assert phases["virtual.request"]["total_s"] == pytest.approx(0.3)
        # instants are excluded
        assert "virtual.drop" not in phases

"""Trace exporters: JSONL, Chrome trace-event JSON, text flamegraph.

Three consumers, three formats:

* :func:`write_jsonl` — one JSON object per record, in record order.
  The machine-diffable form: two identical DES runs produce
  byte-identical files, which the determinism tests assert.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (``{"traceEvents": [...]}``) loadable in Perfetto
  or ``chrome://tracing``.  Each clock domain becomes one process
  (wall = pid 1, rebased to its first span; virtual = pid 2, absolute
  DES time), each track one named thread; spans are complete ("X")
  events sorted so timestamps are monotonic per track and parents
  precede their children.
* :func:`flame_summary` — a text flamegraph: spans are nested by
  containment per track, aggregated by call path, and printed as an
  indented tree with total/self times.

:func:`validate_chrome_trace` checks the invariants the exporter
promises (required keys, numeric non-negative durations, monotonic
``ts`` per track) and is wired into ``repro trace-summary`` and the CI
trace smoke test.
"""

from __future__ import annotations

import json
import math
import pathlib
from collections.abc import Iterable, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "jsonl_lines",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "flame_summary",
    "phase_breakdown",
    "load_records",
]

#: stable pid assignment per clock domain (Chrome pids must be ints)
_DOMAIN_PIDS = {"wall": 1, "virtual": 2}


def _record_obj(record: SpanRecord, domain: str) -> dict:
    obj = {
        "domain": domain,
        "track": record.track,
        "name": record.name,
        "cat": record.cat,
        "ph": record.phase,
        "ts": record.ts,
        "dur": record.dur,
    }
    if record.args:
        obj["args"] = record.args
    return obj


def jsonl_lines(tracers: Iterable[Tracer]) -> list[str]:
    """One compact JSON line per record, in record order per tracer."""
    lines = []
    for tracer in tracers:
        for record in tracer.records:
            lines.append(
                json.dumps(_record_obj(record, tracer.domain), separators=(",", ":"))
            )
    return lines


def write_jsonl(tracers: Iterable[Tracer], path: str | pathlib.Path) -> None:
    pathlib.Path(path).write_text("\n".join(jsonl_lines(tracers)) + "\n")


def _domain_pid(domain: str) -> int:
    return _DOMAIN_PIDS.get(domain, 9)


def chrome_trace(
    tracers: Sequence[Tracer],
    registry: MetricsRegistry | None = None,
    counter_domain: str = "virtual",
) -> dict:
    """Assemble a Chrome trace-event dict from tracers (+ gauge series)."""
    events: list[dict] = []
    for tracer in tracers:
        pid = _domain_pid(tracer.domain)
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"{tracer.domain} clock"},
            }
        )
        if not tracer.records:
            continue
        # wall timestamps are rebased to the trace start so the timeline
        # opens at ~0; virtual time is already a meaningful absolute axis
        base = (
            min(r.ts for r in tracer.records) if tracer.domain == "wall" else 0.0
        )
        tids: dict[str, int] = {}
        spans: list[tuple[float, float, SpanRecord]] = []
        for record in tracer.records:
            tid = tids.get(record.track)
            if tid is None:
                tid = tids[record.track] = len(tids) + 1
                events.append(
                    {
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "name": "thread_name",
                        "args": {"name": record.track},
                    }
                )
            spans.append((record.ts - base, float(tid), record))
        # (ts, tid, -dur): monotonic per track, parents before children
        spans.sort(key=lambda item: (item[1], item[0], -item[2].dur))
        for ts, tid, record in spans:
            event = {
                "name": record.name,
                "cat": record.cat or tracer.domain,
                "ph": record.phase,
                "ts": round(ts * 1e6, 3),
                "pid": pid,
                "tid": int(tid),
            }
            if record.phase == "X":
                event["dur"] = round(record.dur * 1e6, 3)
            elif record.phase == "i":
                event["s"] = "t"
            if record.args:
                event["args"] = record.args
            events.append(event)
    if registry is not None:
        pid = _domain_pid(counter_domain)
        for name in sorted(registry.gauges):
            for t, value in registry.gauges[name].series:
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": round(t * 1e6, 3),
                        "pid": pid,
                        "tid": 0,
                        "args": {"value": value},
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    tracers: Sequence[Tracer],
    path: str | pathlib.Path,
    registry: MetricsRegistry | None = None,
) -> None:
    trace = chrome_trace(tracers, registry=registry)
    pathlib.Path(path).write_text(json.dumps(trace, separators=(",", ":")) + "\n")


def _finite(value) -> bool:
    """Whether a parsed JSON value is a finite number (not a bool, not an
    integer past float range)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


#: what each optional field of a span must be, when present
_SPAN_FIELDS = {"cat": str, "args": (dict, type(None))}


def validate_chrome_trace(trace: dict) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    last_ts: dict[tuple[int, int], float] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = [key for key in ("ph", "name", "pid", "tid") if key not in event]
        if missing:
            for key in missing:
                problems.append(f"event {i}: missing {key!r}")
            continue
        bad = [
            key for key in ("pid", "tid")
            if isinstance(event[key], bool) or not isinstance(event[key], (int, str))
        ]
        bad += [key for key in ("ph", "name") if not isinstance(event[key], str)]
        bad += [
            key for key, kind in _SPAN_FIELDS.items()
            if key in event and not isinstance(event[key], kind)
        ]
        if bad:
            for key in bad:
                problems.append(f"event {i}: bad {key} {event[key]!r}")
            continue
        ph = event.get("ph")
        if ph == "M":
            args = event.get("args")
            if event["name"] == "thread_name" and not (
                isinstance(args, dict) and isinstance(args.get("name"), str)
            ):
                problems.append(f"event {i}: thread_name without a string args.name")
            continue
        ts = event.get("ts")
        if not _finite(ts) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        dur = event.get("dur", 0.0)
        if not _finite(dur) or dur < 0 or (ph == "X" and "dur" not in event):
            problems.append(f"event {i}: bad dur {event.get('dur')!r}")
        if ph == "X":
            track = (event["pid"], event["tid"])
            if ts < last_ts.get(track, float("-inf")):
                problems.append(f"event {i}: ts not monotonic on track {track}")
            last_ts[track] = ts
    return problems


def _nest(records: list[SpanRecord]) -> dict[tuple[str, ...], list[float]]:
    """Aggregate spans of one track into path -> [count, total, child time].

    Spans are nested by interval containment: a span is a child of the
    innermost open span that contains it.  Instants are skipped.
    """
    spans = sorted(
        (r for r in records if r.phase == "X"), key=lambda r: (r.ts, -r.dur)
    )
    paths: dict[tuple[str, ...], list[float]] = {}
    stack: list[tuple[str, float]] = []  # (name, end)
    eps = 1e-12
    for record in spans:
        while stack and record.ts >= stack[-1][1] - eps:
            stack.pop()
        path = tuple(name for name, _ in stack) + (record.name,)
        node = paths.setdefault(path, [0, 0.0, 0.0])
        node[0] += 1
        node[1] += record.dur
        if len(path) > 1:
            parent = paths.get(path[:-1])
            if parent is not None:
                parent[2] += record.dur
        stack.append((record.name, record.ts + record.dur))
    return paths


def flame_summary(tracers: Iterable[Tracer], top: int = 40) -> str:
    """Indented text flamegraph aggregated over all tracks per domain."""
    lines = [f"{'span':<44} {'count':>8} {'total ms':>12} {'self ms':>12}"]
    for tracer in tracers:
        if not tracer.records:
            continue
        by_track: dict[str, list[SpanRecord]] = {}
        for record in tracer.records:
            by_track.setdefault(record.track, []).append(record)
        merged: dict[tuple[str, ...], list[float]] = {}
        for records in by_track.values():
            for path, (count, total, child) in _nest(records).items():
                node = merged.setdefault(path, [0, 0.0, 0.0])
                node[0] += count
                node[1] += total
                node[2] += child
        lines.append(f"[{tracer.domain} clock]")
        # depth-first, children ordered by total time
        roots = sorted(
            (p for p in merged if len(p) == 1), key=lambda p: -merged[p][1]
        )

        def emit(path: tuple[str, ...], depth: int) -> None:
            count, total, child = merged[path]
            label = "  " * depth + path[-1]
            lines.append(
                f"{label:<44} {count:>8} {total * 1e3:>12.3f} "
                f"{(total - child) * 1e3:>12.3f}"
            )
            children = sorted(
                (p for p in merged if len(p) == len(path) + 1 and p[:-1] == path),
                key=lambda p: -merged[p][1],
            )
            for sub in children:
                emit(sub, depth + 1)

        for index, root in enumerate(roots):
            if index >= top:
                lines.append(f"... {len(roots) - top} more roots elided")
                break
            emit(root, 1)
    return "\n".join(lines)


def phase_breakdown(tracers: Iterable[Tracer]) -> dict:
    """Span totals by name — the phase record benchmarks embed in JSON."""
    phases: dict[str, dict] = {}
    for tracer in tracers:
        for record in tracer.records:
            if record.phase != "X":
                continue
            key = f"{tracer.domain}.{record.name}"
            node = phases.setdefault(key, {"count": 0, "total_s": 0.0})
            node["count"] += 1
            node["total_s"] += record.dur
    return dict(sorted(phases.items(), key=lambda kv: -kv[1]["total_s"]))


_REQUIRED = object()


def _field(obj: dict, key: str, kind, where: str, default=_REQUIRED):
    """``obj[key]`` checked against ``kind`` (``float``: a finite number),
    or ``default`` when absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{where}: missing {key!r}")
        return default
    value = obj[key]
    if not (_finite(value) if kind is float else isinstance(value, kind)):
        raise ValueError(f"{where}: bad {key} {value!r}")
    return value


def load_records(path: str | pathlib.Path) -> list[Tracer]:
    """Load a trace file (Chrome JSON or JSONL) back into tracers.

    Malformed input raises :class:`ValueError` naming the trace line
    (JSONL) or the event (Chrome) at fault: a loaded span always has a
    string name and finite numeric ``ts`` / ``dur``.  A file that is not
    UTF-8 text, or holds nothing but whitespace, raises one naming the
    path.
    """
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise ValueError(
            f"{path}: not UTF-8 text (byte {error.start}: {error.reason})"
        ) from None
    if not text.strip():
        raise ValueError(f"{path}: empty trace file")
    tracers: dict[str, Tracer] = {}

    def tracer_for(domain: str) -> Tracer:
        tracer = tracers.get(domain)
        if tracer is None:
            tracer = tracers[domain] = Tracer(domain=domain)
        return tracer

    # Both formats start with "{": a Chrome trace is one JSON object
    # with a traceEvents key, JSONL is one object per line.
    trace = None
    try:
        parsed = json.loads(text)
        if isinstance(parsed, dict) and "traceEvents" in parsed:
            trace = parsed
    except json.JSONDecodeError:
        pass
    if trace is not None:
        problems = validate_chrome_trace(trace)
        if problems:
            raise ValueError(
                f"invalid chrome trace: {problems[0]} (+{len(problems) - 1} more)"
                if len(problems) > 1
                else f"invalid chrome trace: {problems[0]}"
            )
        pid_domains = {pid: f"pid{pid}" for pid in _DOMAIN_PIDS.values()}
        pid_domains.update({pid: name for name, pid in _DOMAIN_PIDS.items()})
        track_names: dict[tuple[int, int], str] = {}
        for event in trace["traceEvents"]:
            if event["ph"] == "M" and event["name"] == "thread_name":
                track_names[(event["pid"], event["tid"])] = event["args"]["name"]
        for event in trace["traceEvents"]:
            ph = event["ph"]
            if ph not in ("X", "i"):
                continue
            domain = pid_domains.get(event["pid"], f"pid{event['pid']}")
            track = track_names.get((event["pid"], event["tid"]), "main")
            tracer_for(domain).records.append(
                SpanRecord(
                    name=event["name"],
                    ts=event["ts"] / 1e6,
                    dur=event.get("dur", 0.0) / 1e6,
                    cat=event.get("cat", ""),
                    track=track,
                    phase=ph,
                    args=event.get("args"),
                )
            )
    else:
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            where = f"trace line {number}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{where}: not JSON ({error.msg})") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{where}: not a JSON object: {line[:40]!r}")
            tracer_for(_field(obj, "domain", str, where, "wall")).records.append(
                SpanRecord(
                    name=_field(obj, "name", str, where),
                    ts=_field(obj, "ts", float, where),
                    dur=_field(obj, "dur", float, where, 0.0),
                    cat=_field(obj, "cat", str, where, ""),
                    track=_field(obj, "track", str, where, "main"),
                    phase=_field(obj, "ph", str, where, "X"),
                    args=_field(obj, "args", (dict, type(None)), where, None),
                )
            )
    return [tracers[d] for d in sorted(tracers)]

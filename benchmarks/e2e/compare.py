"""Compare two result files of ``run.py --all``, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the parent (or the first set of runs), B the change (or the second
set).  One row per (workload, end-to-end metric) with a verdict against
the bound in ``BENCHMARK.json``:

* ``regressed``  - B's median is worse than A's by more than the bound
  (any worsening at all for a ``des`` or ``exact`` metric);
* ``unresolved`` - within the bound, but the run-to-run spread (quartile
  distance over median) of either side is wider than the bound, and not
  every B run beats every A run;
* ``ok``         - otherwise.

Per-layer metrics have no bound: ``des``, ``exact`` and ``trace`` counts
must be identical (else ``changed``), host-clock ones are listed with
their ratio.  Two sets of runs of one commit agree when nothing is
``regressed`` and nothing is ``changed``.  Exit status 1 on any
regression.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

from stats import quartile_spread

ROOT = pathlib.Path(__file__).resolve().parents[2]


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(
    a: list[float], b: list[float], better: str, bound: float, clock: str
) -> tuple[str, float]:
    """``(verdict, worsening of the median)`` for one end-to-end metric."""
    worse = worsening(statistics.median(a), statistics.median(b), better)
    if clock != "host":
        return ("regressed" if worse > 0 else "ok"), worse
    if worse > bound:
        return "regressed", worse
    if max(quartile_spread(a), quartile_spread(b)) > bound:
        wins = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        if not wins:
            return "unresolved", worse
    return "ok", worse


def compare(a: dict, b: dict, benchmark: dict) -> tuple[list[list], list[list]]:
    """Rows for the end-to-end table and for the per-layer table."""
    e2e_rows, layer_rows = [], []
    for name, a_runs in a["workloads"].items():
        b_runs = b["workloads"].get(name)
        if not b_runs:
            continue
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            a_values = [r["end_to_end"][metric]["value"] for r in a_runs]
            b_values = [r["end_to_end"][metric]["value"] for r in b_runs]
            clock = a_runs[0]["end_to_end"][metric]["clock"]
            what, worse = verdict(a_values, b_values, spec["better"], spec["bound"], clock)
            e2e_rows.append(
                [
                    name, metric, clock, statistics.median(a_values),
                    statistics.median(b_values), worse,
                    max(quartile_spread(a_values), quartile_spread(b_values)),
                    spec["bound"], what,
                ]
            )
        a_fail = sum(r["failed"] for r in a_runs) / sum(r["attempted"] for r in a_runs)
        b_fail = sum(r["failed"] for r in b_runs) / sum(r["attempted"] for r in b_runs)
        e2e_rows.append(
            [name, "fail_share", "exact", a_fail, b_fail, b_fail - a_fail, 0.0, 0.0,
             "regressed" if b_fail > a_fail else "ok"]
        )
        if not (a_runs[0].get("per_layer") and b_runs[0].get("per_layer")):
            continue
        same_seeds = [r["seed"] for r in a_runs] == [r["seed"] for r in b_runs]
        for spec in benchmark["per_layer"]:
            metric = spec["name"]
            a_values = [r["per_layer"].get(metric) for r in a_runs]
            b_values = [r["per_layer"].get(metric) for r in b_runs]
            if None in a_values or None in b_values:
                layer_rows.append([name, metric, None, None, "unresolved-name"])
                continue
            a_mid, b_mid = statistics.median(a_values), statistics.median(b_values)
            if a_mid == 0 and b_mid == 0:
                continue
            if a["layer_clocks"][metric] == "host":
                what = "-"
            elif same_seeds:
                what = "identical" if a_values == b_values else "changed"
            else:
                what = "identical" if a_mid == b_mid else "changed"
            layer_rows.append([name, metric, a_mid, b_mid, what])
    return e2e_rows, layer_rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_rows, layer_rows = compare(a, b, benchmark)
    print(
        f"{'workload':18}{'metric':15}{'clock':6}{'A median':>13}{'B median':>13}"
        f"{'worse':>8}{'spread':>8}{'bound':>7}  verdict"
    )
    for name, metric, clock, a_mid, b_mid, worse, spread, bound, what in e2e_rows:
        print(
            f"{name:18}{metric:15}{clock:6}{a_mid:13.6g}{b_mid:13.6g}"
            f"{100 * worse:7.1f}%{100 * spread:7.1f}%{100 * bound:6.0f}%  {what}"
        )
    if layer_rows:
        print(f"\n{'workload':18}{'layer metric':30}{'A median':>13}{'B median':>13}{'B/A':>8}  verdict")
        for name, metric, a_mid, b_mid, what in layer_rows:
            if a_mid is None:
                print(f"{name:18}{metric:30}{'null':>13}{'null':>13}{'':8}  {what}")
                continue
            ratio = f"{b_mid / a_mid:8.3f}" if a_mid else f"{'':8}"
            print(f"{name:18}{metric:30}{a_mid:13.6g}{b_mid:13.6g}{ratio}  {what}")
    counts = {
        what: sum(1 for row in e2e_rows if row[-1] == what)
        for what in ("ok", "unresolved", "regressed")
    }
    changed = sum(1 for row in layer_rows if row[-1] == "changed")
    print(
        f"\n{counts['ok']} ok, {counts['unresolved']} unresolved, "
        f"{counts['regressed']} regressed; {changed} exact/des layer values changed"
    )
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())

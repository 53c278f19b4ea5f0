"""The perf trajectory: paired parent/change medians, one row per performance change.

``benchmarks/trajectory.json`` is hand-kept from the changes' own records in CHANGES.md.
This holds its shape: every row names the slots of ``BENCHMARK.json``
for every workload it lists, and a met claim points at a slot with a
number on both sides.
"""

from __future__ import annotations

import json
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
VERDICTS = {"claim met", "claim not met"}


def _load(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def test_every_row_has_every_slot_for_every_workload_it_lists():
    benchmark = _load("BENCHMARK.json")
    trajectory = _load("benchmarks/trajectory.json")
    slots = [slot["name"] for slot in benchmark["end_to_end"]]
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    assert trajectory["slots"] == slots

    rows = trajectory["rows"]
    numbers = [row["change"] for row in rows]
    assert numbers == sorted(set(numbers))
    for row in rows:
        assert row["verdict"] in VERDICTS, row["change"]
        assert isinstance(row["environment"], dict), row["change"]
        assert set(row["workloads"]) <= workloads, row["change"]
        for name, measured in row["workloads"].items():
            assert measured["pairs"] >= 1, (row["change"], name)
            for slot in slots:
                medians = measured[slot]
                for side in ("parent", "change"):
                    value = medians[side]
                    assert value is None or (
                        isinstance(value, (int, float)) and math.isfinite(value) and value > 0
                    ), (row["change"], name, slot, side)
                if medians["parent"] is None:
                    # a median the entry did not record says what it did record
                    assert medians["change"] is None
        if row["verdict"] == "claim met":
            assert row["commit"] and row["parent"], row["change"]
            workload, slot = row["claim"].split("/")
            medians = row["workloads"][workload][slot]
            assert None not in (medians["parent"], medians["change"]), row["change"]

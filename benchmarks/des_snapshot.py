"""Snapshot gate: the DES / exact layer values of the CI smokes do not move.

The harness's ``des``- and ``exact``-clock layers (``PER_LAYER`` in
``benchmarks/e2e/run.py``) are a function of the code and the seed.  CI
writes the ``--quick --seed 1 --seconds 2 --trace 1`` result lines of the
five DES / solver workloads to ``e2e_smoke/<workload>.out`` and runs
``python -m benchmarks.des_snapshot e2e_smoke/*.out``, which exits 1 on any
difference from ``des_snapshot.json``; ``--write`` rewrites the file, in the
diff of the change that moves a value (one line per workload: ``git diff
--word-diff`` shows which).  Counts compare exactly, floats at 9 significant
digits (Python 3.12's compensated ``sum()`` may move last bits); a layer
reading 0 is left out.  ``execute_real`` is not held: its exact values come
from the engine's arithmetic.
"""

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SNAPSHOT = HERE / "des_snapshot.json"
sys.path.insert(0, str(HERE / "e2e"))
from run import PER_LAYER  # noqa: E402  (the harness's own metric table)


def held_values(result: pathlib.Path) -> dict:
    """The non-zero des / exact layer values of one ``--trace 1`` result line."""
    metrics = json.loads(result.read_text().splitlines()[-1])["metrics"]
    values = [(name, metrics[name]["value"]) for name, (_unit, _better, clock) in PER_LAYER.items()
              if clock in ("des", "exact")]
    return {name: v if isinstance(v, int) else float(f"{v:.9g}") for name, v in values if v}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", type=pathlib.Path, help="<workload>.out files")
    parser.add_argument("--write", action="store_true", help="rewrite the snapshot from them")
    args = parser.parse_args(argv)
    runs = {path.stem: held_values(path) for path in args.results}
    if args.write:
        rows = [f"{json.dumps(w)}: {json.dumps(v, sort_keys=True)}" for w, v in sorted(runs.items())]
        SNAPSHOT.write_text("{\n" + ",\n".join(rows) + "\n}\n")
        return 0
    snapshot = json.loads(SNAPSHOT.read_text())
    # a workload missing on either side differs in every value it holds
    differences = []
    for workload in sorted(snapshot.keys() | runs.keys()):
        held, run = snapshot.get(workload, {}), runs.get(workload, {})
        differences += [
            f"{workload} {name}: snapshot {held.get(name, 0)!r}, run {run.get(name, 0)!r}"
            for name in sorted(held.keys() | run.keys())
            if held.get(name, 0) != run.get(name, 0)
        ]
    print("\n".join(differences + [f"des/exact snapshot: {len(differences)} difference(s)"]))
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())

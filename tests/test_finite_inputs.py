"""Costs, capacities and rates must be finite numbers.

A NaN compared with ``< 0`` is never negative, so a plain sign check lets
it through: a block with ``compute_time_s=nan`` used to reach the solver,
which silently rejected its task while ``check_constraints`` reported no
violation.  Every such field now raises a ``ValueError`` naming itself.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.cluster import default_topology
from repro.cluster.node import NodeSpec
from repro.cluster.stream import LinkSpec
from repro.core.catalog import Block
from repro.core.problem import RadioModel

NAN, INF = float("nan"), float("inf")


def _block(**costs) -> Block:
    return Block("b", "d", **{"compute_time_s": 0.01, "memory_gb": 0.1, **costs})


#: (constructor, field, value); the field is passed as ``field=value``
CASES = [
    *((_block, f, v) for f in ("compute_time_s", "memory_gb", "training_cost_s")
      for v in (NAN, INF)),
    *((RadioModel, "default_bits_per_rb", v) for v in (NAN, INF, 0.0)),
    *((RadioModel, "per_task_bits_per_rb", {1: v}) for v in (NAN, INF, 0.0)),
    *((partial(LinkSpec, "a", "b"), f, v)
      for f in ("bandwidth_bps", "latency_s", "stall_factor") for v in (NAN, INF)),
    *((partial(NodeSpec, "n"), f, v) for f in ("cpu_scale", "memory_gb")
      for v in (NAN, INF)),
    (partial(default_topology, 2), "bandwidth_bps", NAN),
]


def _case_id(case) -> str:
    build, field, value = case
    name = getattr(build, "func", build).__name__.lstrip("_")
    return f"{name}.{field}={value}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_a_non_finite_cost_or_capacity_is_a_named_error(case):
    build, field, value = case
    with pytest.raises(ValueError, match=rf"{field}(\[1\])? must be finite"):
        build(**{field: value})

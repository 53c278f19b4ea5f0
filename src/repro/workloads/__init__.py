"""Scenario generators reproducing Table IV.

* :mod:`repro.workloads.generator` -- catalog builder: turns a cost
  basis (static reference values or live profiler output) into DOT
  blocks and paths with the paper's sharing structure
* :mod:`repro.workloads.smallscale` -- the T=1..5 small-scale scenario
* :mod:`repro.workloads.largescale` -- the T=20 large-scale scenario
"""

from repro.workloads.generator import CostBasis, ScenarioCatalogBuilder
from repro.workloads.smallscale import (
    small_scale_problem,
    serving_small_scale_problem,
    SMALL_SCALE,
)
from repro.workloads.largescale import large_scale_problem, LARGE_SCALE, RequestRate

__all__ = [
    "CostBasis",
    "ScenarioCatalogBuilder",
    "small_scale_problem",
    "serving_small_scale_problem",
    "SMALL_SCALE",
    "large_scale_problem",
    "LARGE_SCALE",
    "RequestRate",
]

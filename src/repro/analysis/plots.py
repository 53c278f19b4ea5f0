"""Terminal plotting for the evaluation artifacts.

:func:`sparkline` renders a series as one line of unicode marks, so an
example can show the *shape* of a latency trace directly in a terminal
without any plotting dependency.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["sparkline"]

_SPARK_MARKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], maximum: float | None = None) -> str:
    """One-line intensity strip of a series (used for latency traces)."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return ""
    top = maximum if maximum is not None else float(data.max())
    if top <= 0:
        return _SPARK_MARKS[0] * data.size
    levels = np.clip(data / top, 0.0, 1.0)
    indices = np.minimum((levels * len(_SPARK_MARKS)).astype(int), len(_SPARK_MARKS) - 1)
    return "".join(_SPARK_MARKS[i] for i in indices)

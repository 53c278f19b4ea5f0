"""Sample statistics shared by the harness and ``compare``.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it; below twenty samples no tail
qualifies and the median stands in for it.
"""

from __future__ import annotations

import statistics

import numpy as np

#: a percentile is reported only with at least this many samples above it
MIN_BEYOND = 10
_LADDER = (99, 95, 90, 75)


def tail_percentile(n: int, wanted: int = 99) -> int:
    """Highest percentile <= ``wanted`` with >= 10 of ``n`` samples beyond it."""
    for pct in _LADDER:
        if pct <= wanted and n * (100 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return 50


def summarize(samples: list[float], wanted_tail: int) -> dict:
    """Median, qualifying tail percentile and sample count of ``samples``."""
    n = len(samples)
    pct = tail_percentile(n, wanted_tail)
    p50, tail = np.percentile(samples, (50, pct))
    return {
        "n": n,
        "p50": float(p50),
        "tail_pct": pct,
        "tail": float(tail),
        "beyond": int(n * (100 - pct) / 100.0),
    }


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median; 0 when fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")

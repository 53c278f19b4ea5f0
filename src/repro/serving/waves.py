"""Vectorized arrival waves: the numpy half of the serving data plane.

A scalar data plane (the reference kept in ``tests/oracles.py``)
generates one DES event per offered request (an ``emit`` closure that
draws the next inter-arrival gap, meters a per-request token bucket,
and enqueues the uplink frame).  That is perfectly fine at paper
scale — a few hundred requests — and hopeless at 10⁵–10⁶.

This module computes the same quantities as whole numpy arrays, one
*wave* per task, with **bit-identical** results to the scalar event
chain:

* :func:`arrival_times` reproduces the emit chain's accumulated-float
  arrival instants (``t_k = fl(t_{k-1} + gap_k)``) via ``np.cumsum``,
  which accumulates sequentially in C and therefore rounds exactly like
  the scalar loop.  Poisson gaps are drawn in bulk from the same
  ``Generator`` — numpy fills arrays from the identical bitstream a
  sequence of scalar draws would consume, so the values match float for
  float.
* :func:`wave_admissions` is the admission gate, in closed form over a
  whole wave.  The admission law — request ``k`` is admitted iff
  ``⌊k·z⌋`` increments — is evaluated with the exact float expression
  the per-request bucket in ``tests/oracles.py`` uses, including its
  clamp to one admission per offered request, so the decisions and
  admitted counts agree bit for bit.  Over any ``n`` offered requests
  the admitted count is within one of ``n·z`` (exact for ``z ∈ {0,
  1}``), and no clock is involved, so the decisions do not depend on
  arrival jitter.
* :func:`fifo_deliveries` replays the per-slice FIFO uplink (``start =
  max(arrival, busy); finish = fl(start + airtime)``).  When the slice
  never queues (the common case at solved operating points) the whole
  wave vectorizes; queued stretches fall back to an exact scan.
* :func:`merge_arrival_order` recovers the scalar runtime's *global*
  request numbering: the DES interleaves per-task emit chains by
  ``(time, schedule sequence)``, which for simultaneous arrivals
  resolves to comparing when each chain's previous event fired, and
  ultimately to task scheduling order.  One argsort by time settles
  every arrival but the simultaneous ones; only those tie runs are
  ordered by ``(previous arrival, task position)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "arrival_times",
    "wave_admissions",
    "fifo_deliveries",
    "merge_arrival_order",
]

#: tolerance absorbing float error in the admission target ``k·z``
ADMIT_EPS = 1e-12


def arrival_times(
    rate: float,
    duration_s: float,
    poisson: bool,
    rng: np.random.Generator,
) -> np.ndarray:
    """All arrival instants of one task's wave, first at ``t = 0``.

    Bit-identical to the scalar emit chain: deterministic gaps are the
    accumulated float sums of ``fl(1/rate)``; Poisson gaps consume the
    task ``rng``'s stream exactly as per-request scalar draws would
    (numpy array fills use the same underlying bitstream sequentially).
    Arrivals stop once the *next* instant would pass ``duration_s`` —
    the same ``now + gap <= duration`` test the scalar chain applies.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not poisson:
        gap = 1.0 / rate
        # enough constant gaps to overshoot the horizon, then filter
        n = int(duration_s / gap) + 2
        times = np.cumsum(np.full(n, gap))
        times = times[times <= duration_s]
        return np.concatenate(([0.0], times))
    # draw in bulk; extend until the accumulated sum passes the horizon.
    # Over-drawing only advances this task's private generator, which
    # nothing else consumes — the *used* prefix matches scalar draws.
    scale = 1.0 / rate
    expected = rate * duration_s
    chunk = max(16, int(expected + 6.0 * np.sqrt(expected) + 16))
    gaps = rng.exponential(scale, size=chunk)
    while float(np.sum(gaps)) <= duration_s:
        gaps = np.concatenate((gaps, rng.exponential(scale, size=chunk)))
    # cumsum over the full gap array: sequential accumulation, so the
    # rounding matches the scalar chain even across extension chunks
    times = np.cumsum(gaps)
    times = times[times <= duration_s]
    return np.concatenate(([0.0], times))


def wave_admissions(ratio: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Admission decisions for ``n`` offered requests, in closed form.

    Returns ``(mask, admitted)`` where ``mask[k]`` is the admit/shed
    decision for offered request ``k`` (0-indexed) and ``admitted[k]``
    the running admitted count *after* request ``k``.

    Request ``k`` (1-indexed) is admitted iff ``⌊fl(k·z) + ε⌋`` exceeds
    the admitted count so far, which can grow by at most one per
    request.  The closed form is therefore the clamped running minimum
    ``a_k = min_{j≤k}(target_j + (k − j))`` — an exact integer
    computation once the float targets are fixed, so the decisions and
    counts match a per-request loop bit for bit.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must be in [0, 1]")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        empty = np.empty(0)
        return empty.astype(bool), empty.astype(np.int64)
    k = np.arange(1, n + 1, dtype=np.float64)
    target = np.floor(k * ratio + ADMIT_EPS)
    # clamp to one admission per offered request (relevant only if a
    # float target ever jumped by 2, which z <= 1 precludes in practice)
    admitted = (np.minimum.accumulate(target - k) + k).astype(np.int64)
    mask = np.diff(admitted, prepend=np.int64(0)) > 0
    return mask, admitted


def fifo_deliveries(arrivals: np.ndarray, airtime_s: float) -> np.ndarray:
    """Delivery instants of a FIFO slice serving fixed-airtime frames.

    Replays ``finish_i = fl(max(arrival_i, finish_{i-1}) + airtime)``.
    The uncontended case (every frame finds the slice idle) vectorizes
    to one elementwise add; contended stretches use an exact scan so
    the floats match the scalar per-frame FIFO of
    ``tests/oracles.py::SliceFifo``.
    """
    if airtime_s < 0:
        raise ValueError("airtime_s must be >= 0")
    if len(arrivals) == 0:
        return np.empty(0)
    finishes = arrivals + airtime_s
    if len(arrivals) == 1 or bool(np.all(finishes[:-1] <= arrivals[1:])):
        return finishes
    # over Python floats: the same IEEE doubles, without a numpy scalar per step
    airtime_s = float(airtime_s)
    busy = 0.0
    out = []
    for arrival in arrivals.tolist():
        busy = (arrival if arrival > busy else busy) + airtime_s
        out.append(busy)
    return np.array(out)


def merge_arrival_order(
    arrivals_per_task: list[np.ndarray],
) -> list[np.ndarray]:
    """Global creation order of all tasks' arrivals (scalar numbering).

    The scalar runtime numbers requests in DES event order: ``(time,
    schedule sequence)``.  Two simultaneous arrivals of different tasks
    compare by when their emit events were *scheduled* — the previous
    arrival instant of each chain — and, when those tie as well (same
    accumulated grid), by the order the chains were seeded at ``t = 0``,
    i.e. task position.  That is the order of a stable lexsort over
    ``(time, previous arrival, task position)`` for every arrival
    process the runtime generates (exact deeper-level ties require
    identical accumulated grids, which the fallback to task position
    resolves identically).  One argsort by time alone already gives it
    wherever times differ, so only the runs of equal times are lexsorted,
    with the arrival's place in the concatenation as the last key (at
    most the ``t = 0`` starts, on Poisson waves).

    Returns one int64 array per task mapping each arrival to its global
    request id.
    """
    if not arrivals_per_task:
        return []
    times = np.concatenate(arrivals_per_task)
    order = np.argsort(times)
    ranked = times[order]
    # the members of every tie run: both ends of each tied pair
    tied = ranked[1:] == ranked[:-1]
    in_run = np.zeros(len(times), dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    runs = np.flatnonzero(in_run)
    members = order[runs]
    starts = np.cumsum([0] + [len(a) for a in arrivals_per_task])
    position = np.searchsorted(starts, members, "right") - 1
    previous = times[members - 1]
    previous[members == starts[position]] = -np.inf  # a wave's first
    # the sort left equal times in no particular order: the arrival's
    # place in the concatenation is the lexsort's last key
    order[runs] = members[np.lexsort((members, position, previous, ranked[runs]))]
    ids = np.empty(len(times), dtype=np.int64)
    ids[order] = np.arange(len(times), dtype=np.int64)
    out = []
    offset = 0
    for a in arrivals_per_task:
        out.append(ids[offset : offset + len(a)])
        offset += len(a)
    return out

"""Wave primitives: bit-exactness against the scalar building blocks.

The vector engine's correctness argument rests on four primitives each
reproducing its scalar counterpart float for float; this module pins
every one of them, including a hypothesis sweep of the closed-form
admission gate against the per-request bucket in ``tests/oracles.py``
(random ratios and stream lengths), the admission law's own
properties on the closed form, and the per-frame slice FIFO
(``tests/oracles.py::SliceFifo``) the wave's uplink replays.  Fed Poisson
frames, that uplink is an M/D/1 queue and is held to its closed forms.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import TTI_S, uplink_tti_s
from repro.serving.waves import (
    arrival_times,
    fifo_deliveries,
    merge_arrival_order,
    wave_admissions,
)
from tests.oracles import (
    SliceFifo,
    TokenBucket,
    md1_mean_sojourn,
    md1_wait_quantile,
)


# -- arrival_times ---------------------------------------------------------


def _scalar_arrivals(rate, duration_s, poisson, rng):
    """The emit chain's arrival instants, one scalar step at a time."""
    times = [0.0]
    now = 0.0
    while True:
        gap = float(rng.exponential(1.0 / rate)) if poisson else 1.0 / rate
        if now + gap > duration_s:
            return np.array(times)
        now = now + gap
        times.append(now)


@pytest.mark.parametrize("rate", [3.0, 5.0, 7.3, 1000.0])
def test_deterministic_arrivals_match_scalar_chain(rate):
    vec = arrival_times(rate, 4.0, poisson=False, rng=np.random.default_rng(0))
    ref = _scalar_arrivals(rate, 4.0, False, np.random.default_rng(0))
    assert vec.tolist() == ref.tolist()


@pytest.mark.parametrize("seed", [0, 3, 7919])
@pytest.mark.parametrize("rate", [2.0, 5.0, 40.0])
def test_poisson_arrivals_match_scalar_draws(rate, seed):
    # same Generator stream: bulk fills and per-request scalar draws
    # consume identical bits, so the instants agree float for float
    vec = arrival_times(rate, 3.0, poisson=True, rng=np.random.default_rng(seed))
    ref = _scalar_arrivals(rate, 3.0, True, np.random.default_rng(seed))
    assert vec.tolist() == ref.tolist()


def test_arrivals_always_include_time_zero():
    assert arrival_times(0.01, 1.0, False, np.random.default_rng(0)).tolist() == [0.0]


# -- wave_admissions: the admission law ------------------------------------


@pytest.mark.parametrize("ratio", [0.1, 0.25, 0.37, 0.5, 0.61, 0.73, 0.9])
@pytest.mark.parametrize("n", [2000, 2003, 2997])
def test_admitted_fraction_within_two_percent(ratio, n):
    _mask, admitted = wave_admissions(ratio, n)
    assert admitted[-1] / n == pytest.approx(ratio, abs=0.02)


@pytest.mark.parametrize("n", [1, 10, 999])
def test_zero_ratio_exact(n):
    mask, admitted = wave_admissions(0.0, n)
    assert not mask.any() and admitted[-1] == 0


@pytest.mark.parametrize("n", [1, 10, 999])
def test_full_ratio_exact(n):
    mask, admitted = wave_admissions(1.0, n)
    assert mask.all() and admitted[-1] == n


def test_admitted_count_within_one_of_expectation():
    """Every prefix tracks ``k·z`` to within one, not just in the limit."""
    _mask, admitted = wave_admissions(0.3, 199)
    k = np.arange(1, 200)
    assert np.all(np.abs(admitted - k * 0.3) <= 1.0)


def test_low_discrepancy_pattern():
    mask, _admitted = wave_admissions(0.5, 6)
    assert mask.tolist() == [False, True, False, True, False, True]


@pytest.mark.parametrize("ratio", [-0.1, 1.1])
def test_ratio_outside_unit_interval_rejected(ratio):
    with pytest.raises(ValueError, match="ratio"):
        wave_admissions(ratio, 10)


@given(
    ratio=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0]),
    ),
    n=st.integers(min_value=0, max_value=400),
)
@settings(max_examples=200, deadline=None)
def test_wave_admissions_match_scalar_bucket(ratio, n):
    bucket = TokenBucket(ratio)
    decisions, counts = [], []
    for _ in range(n):
        decisions.append(bucket.allow())
        counts.append(bucket.admitted)
    mask, admitted = wave_admissions(ratio, n)
    assert mask.tolist() == decisions
    assert admitted.tolist() == counts


# -- fifo_deliveries -------------------------------------------------------


def _scalar_fifo(arrivals, airtime):
    busy = 0.0
    out = []
    for a in arrivals:
        start = a if a > busy else busy
        busy = start + airtime
        out.append(busy)
    return out


def test_fifo_uncontended_fast_path():
    arrivals = np.array([0.0, 1.0, 2.0, 3.5])
    assert fifo_deliveries(arrivals, 0.25).tolist() == _scalar_fifo(arrivals, 0.25)


def test_fifo_contended_exact_scan():
    # arrivals faster than the airtime: every frame queues
    arrivals = np.cumsum(np.full(50, 0.01))
    assert fifo_deliveries(arrivals, 0.03).tolist() == _scalar_fifo(arrivals, 0.03)


@given(
    gaps=st.lists(
        st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    airtime=st.floats(min_value=1e-4, max_value=0.2, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_fifo_matches_scalar_replay(gaps, airtime):
    arrivals = np.cumsum(np.asarray(gaps))
    assert fifo_deliveries(arrivals, airtime).tolist() == _scalar_fifo(
        arrivals, airtime
    )



# -- the uplink is M/D/1 ---------------------------------------------------

#: 350 kbit frames on a 10-RB slice of 175 kbit per RB per second: 20 TTIs,
#: written out so a wrong airtime rounding shows against the closed forms
MD1_SERVICE_S = 20 * TTI_S
MD1_FRAMES = 200_000


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
def test_uplink_is_md1(rho):
    """Poisson frames through ``fifo_deliveries`` at load ``rho`` give the
    Pollaczek–Khinchine mean sojourn and the Erlang–Crommelin waiting-time
    quantiles.  Over seeds 7–16 no check used more than 0.78 of its
    tolerance (2 % of the mean, 4 % + a quarter TTI of a quantile); with
    an airtime one TTI too long every check missed by at least 2.1 times
    its tolerance (the mean by +6 / +8 / +15 %)."""
    rate = rho / MD1_SERVICE_S
    arrivals = arrival_times(
        rate, MD1_FRAMES / rate, poisson=True, rng=np.random.default_rng(7)
    )
    sojourn = fifo_deliveries(arrivals, uplink_tti_s(350_000, 1_750_000, 10)) - arrivals
    mean = md1_mean_sojourn(rate, MD1_SERVICE_S)
    assert abs(sojourn.mean() - mean) <= 0.02 * mean
    waits = np.quantile(sojourn - MD1_SERVICE_S, [0.5, 0.95, 0.99])
    for q, got in zip((0.5, 0.95, 0.99), waits):
        want = md1_wait_quantile(q, rate, MD1_SERVICE_S)
        assert abs(got - want) <= 0.04 * want + 0.25 * TTI_S, (q, got, want)


# -- the per-frame slice FIFO the wave replays (tests/oracles.py) ----------


def _slice_fifo(rbs: int = 5) -> SliceFifo:
    return SliceFifo({1: (rbs, 350_000.0)})


def test_slice_fifo_queues_the_frames_of_one_task():
    fifo = _slice_fifo()
    first = fifo.enqueue_frame(1, 350_000.0, now=0.0)
    second = fifo.enqueue_frame(1, 350_000.0, now=0.0)
    assert second == pytest.approx(first + 0.2)


def test_slice_fifo_idle_slice_starts_immediately():
    fifo = _slice_fifo()
    fifo.enqueue_frame(1, 350_000.0, now=0.0)
    assert fifo.enqueue_frame(1, 350_000.0, now=1.0) == pytest.approx(1.2)


def test_slice_fifo_reset_clears_queues():
    fifo = _slice_fifo()
    fifo.enqueue_frame(1, 350_000.0, now=0.0)
    fifo.reset()
    assert fifo.enqueue_frame(1, 350_000.0, now=0.0) == pytest.approx(0.2)


def test_slice_fifo_frame_by_frame_is_the_wave_replay():
    # contended stretches and idle gaps, at the latency model's airtime
    arrivals = np.concatenate((np.cumsum(np.full(20, 0.01)), 1.0 + np.arange(5.0)))
    fifo = _slice_fifo(rbs=3)
    airtime = uplink_tti_s(350_000.0, 350_000.0, 3)
    assert [fifo.enqueue_frame(1, 350_000.0, a) for a in arrivals] == (
        fifo_deliveries(arrivals, airtime).tolist()
    )


# -- merge_arrival_order ---------------------------------------------------


def test_merge_numbers_globally_in_time_order():
    a = np.array([0.0, 0.2, 0.4])
    b = np.array([0.0, 0.3])
    ids_a, ids_b = merge_arrival_order([a, b])
    # t=0 ties break by task seeding order
    assert ids_a.tolist() == [0, 2, 4]
    assert ids_b.tolist() == [1, 3]


def test_merge_simultaneous_grids_interleave_by_chain_history():
    # identical grids: every instant ties, resolved by task position
    grid = np.array([0.0, 0.5, 1.0])
    ids = merge_arrival_order([grid.copy(), grid.copy()])
    assert ids[0].tolist() == [0, 2, 4]
    assert ids[1].tolist() == [1, 3, 5]


def test_merge_empty():
    assert merge_arrival_order([]) == []

"""The latency model: airtime, ``r_min`` and the full-rate RB count.

``repro.core.latency`` is the one place bits, RBs and TTIs become seconds
and RB counts.  Besides the formulas themselves, ``r_min`` is held equal
three ways — the module, the clique column the solver reads
(``build_cliques``) and the scalar expression the solver used per item
before (``tests/oracles.py::minimum_latency_rbs``) — near integer
ratios and with no slack left included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import (
    NO_FIT_RBS,
    TTI_S,
    end_to_end_latency,
    full_rate_rbs,
    min_latency_rbs,
    transmission_time,
    uplink_tti_s,
)
from repro.core.task import QualityLevel
from repro.core.tree import build_cliques
from tests.conftest import make_block, make_path, make_task
from tests.oracles import minimum_latency_rbs


class TestContinuousAirtime:
    def test_transmission_time_formula(self):
        task = make_task(1)
        path = make_path(task, "p", (make_block("b"),))
        # 350 kb over 5 RBs of 0.35 Mbps = 0.2 s
        assert transmission_time(path, 5, 350_000.0) == pytest.approx(0.2)

    def test_zero_rbs_infinite(self):
        task = make_task(1)
        path = make_path(task, "p", (make_block("b"),))
        assert transmission_time(path, 0, 350_000.0) == float("inf")

    def test_end_to_end_adds_compute(self):
        task = make_task(1)
        path = make_path(task, "p", (make_block("b", compute_time_s=0.05),))
        assert end_to_end_latency(path, 5, 350_000.0) == pytest.approx(0.25)


class TestTtiAirtime:
    def test_whole_subframes(self):
        # 350 kb over 1.75 Mbps = 200 ms = 200 TTIs exactly
        assert uplink_tti_s(350_000.0, 350_000.0, 5) == pytest.approx(0.2)

    def test_rounds_up_to_one_tti(self):
        assert uplink_tti_s(100.0, 350_000.0, 5) == TTI_S

    def test_starved_slice_never_delivers(self):
        assert uplink_tti_s(100.0, 350_000.0, 0) == float("inf")

    @given(
        bits=st.floats(min_value=0.0, max_value=1e8),
        bits_per_rb=st.floats(min_value=1e3, max_value=1e7),
        radio_blocks=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_whole_ttis_never_shorter_than_the_continuous_airtime(
        self, bits, bits_per_rb, radio_blocks
    ):
        airtime = uplink_tti_s(bits, bits_per_rb, radio_blocks)
        subframes = round(airtime / TTI_S)
        assert subframes >= 1 and airtime == subframes * TTI_S
        continuous = bits / (bits_per_rb * radio_blocks)
        assert airtime >= continuous * (1 - 1e-9)
        assert airtime < continuous + TTI_S * (1 + 1e-9) or subframes == 1


class TestMinLatencyRbs:
    def test_formula(self):
        # 350 kb, 0.35 Mbps/RB, 0.3 s limit, 0.1 s compute -> 1/(0.2) = 5
        assert min_latency_rbs(350_000.0, 350_000.0, 0.3, 0.1) == 5

    def test_compute_exceeding_latency_unreachable(self):
        assert min_latency_rbs(350_000.0, 350_000.0, 0.1, 0.2) == NO_FIT_RBS

    def test_at_least_one_rb(self):
        assert min_latency_rbs(1.0, 1e9, 10.0, 0.0) == 1

    def test_scalars_give_a_python_int_and_arrays_an_int64_column(self):
        assert type(min_latency_rbs(350_000.0, 350_000.0, 0.3, 0.1)) is int
        column = min_latency_rbs(
            np.array([350_000.0, 350_000.0]), 350_000.0, np.array([0.3, 0.1]), 0.1
        )
        assert column.dtype == np.int64 and column.tolist() == [5, NO_FIT_RBS]

    def test_a_demand_beyond_int64_saturates(self):
        # 1e6 bits over a 1e-20 s slack need ~3e20 RBs, past int64: the
        # column must not wrap to a small count
        assert min_latency_rbs(1e6, 350_000.0, 1e-20, 0.0) == NO_FIT_RBS
        task = make_task(1, max_latency_s=1e-20, quality=QualityLevel("q", 1e6))
        path = make_path(task, "p", (make_block("b", compute_time_s=0.0),))
        (clique,) = build_cliques([task], [(path,)], [350_000.0])
        assert clique.min_latency_rbs(0) == NO_FIT_RBS


@st.composite
def _rmin_inputs(draw):
    """``(β, B, L, c)``: free draws, ratios ``β/(B·slack)`` within 1e-12 of
    an integer, and no slack at all (``c ≥ L``)."""
    bits_per_rb = draw(st.floats(min_value=1e3, max_value=1e7))
    compute = draw(st.floats(min_value=0.0, max_value=10.0))
    kind = draw(st.sampled_from(["free", "near_integer", "no_slack"]))
    if kind == "free":
        bits = draw(st.floats(min_value=0.0, max_value=1e9))
        max_latency = draw(st.floats(min_value=0.0, max_value=20.0))
    elif kind == "near_integer":
        k = draw(st.integers(min_value=1, max_value=10**6))
        max_latency = compute + draw(st.floats(min_value=1e-6, max_value=10.0))
        slack = max_latency - compute
        offset = draw(st.floats(min_value=-1e-12, max_value=1e-12))
        bits = (k + offset) * (bits_per_rb * slack)
    else:
        bits = draw(st.floats(min_value=0.0, max_value=1e9))
        max_latency = draw(st.floats(min_value=0.0, max_value=compute))
    return bits, bits_per_rb, max_latency, compute


def _oracle_rmin(bits, bits_per_rb, max_latency, compute) -> int:
    """The scalar expression, saturated at ``NO_FIT_RBS`` like the module.

    Where the scalar expression cannot answer (the slack underflows
    ``B·slack`` to zero), no RB count fits — one RB when there are no
    bits to send.
    """
    try:
        scalar = minimum_latency_rbs(bits, bits_per_rb, max_latency, compute)
    except (ZeroDivisionError, OverflowError):
        return NO_FIT_RBS if bits > 0 else 1
    return min(scalar, NO_FIT_RBS)


@given(_rmin_inputs())
@settings(max_examples=400, deadline=None)
def test_rmin_module_clique_column_and_scalar_oracle_agree(inputs):
    bits, bits_per_rb, max_latency, compute = inputs
    expected = _oracle_rmin(bits, bits_per_rb, max_latency, compute)
    assert min_latency_rbs(bits, bits_per_rb, max_latency, compute) == expected
    column = min_latency_rbs(np.array([bits]), bits_per_rb, max_latency, compute)
    assert column.tolist() == [expected]
    if max_latency <= 0:
        return  # not a task: a latency limit is positive
    task = make_task(1, max_latency_s=max_latency, quality=QualityLevel("q", bits))
    path = make_path(task, "p", (make_block("b", compute_time_s=compute),))
    (clique,) = build_cliques([task], [(path,)], [bits_per_rb])
    if compute < max_latency:
        assert clique.min_latency_rbs(0) == expected
    else:
        assert len(clique) == 0  # the (1g) filter drops it before pricing


class TestFullRateRbs:
    def test_formula(self):
        # 5 frames/s of 350 kb over 0.35 Mbps RBs
        assert full_rate_rbs(5 * 350_000.0, 350_000.0) == 5

    def test_rounds_up(self):
        assert full_rate_rbs(5 * 350_000.0 + 1.0, 350_000.0) == 6

    def test_float_noise_below_an_integer_is_absorbed(self):
        assert full_rate_rbs(3 * 350_000.0 * (1 + 1e-15), 350_000.0) == 3

    def test_at_least_one_rb(self):
        assert full_rate_rbs(0.0, 350_000.0) == 1

"""The latency model: bits, RBs and TTIs to seconds and RB counts.

The paper prices a request as ``l_τ = β(q)/(B(σ)·r) + Σ_{s∈π} c(s)``
(Sec. III-A) under the slice-rate (1e) and latency (1g) constraints.
This is the one home of that arithmetic — the TTI, a frame's uplink
airtime (continuous for (1g), TTI-granular for the DES), ``r_min`` and
the full-rate RB count — for the solver, the constraint checker,
SEM-O-RAN and the serving runtime alike.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.catalog import Path

__all__ = [
    "TTI_S",
    "NO_FIT_RBS",
    "transmission_time",
    "end_to_end_latency",
    "uplink_tti_s",
    "min_latency_rbs",
    "full_rate_rbs",
]

#: LTE subframe (transmission time interval) in seconds.
TTI_S = 0.001

#: ``r_min`` of a variant no RB count can serve in time: compute alone
#: misses the latency limit, or the demand exceeds any practical pool
NO_FIT_RBS = 10**9


def transmission_time(path: Path, radio_blocks: int, bits_per_rb: float) -> float:
    """Networking latency: ``β(q) / (B(σ) · r)`` seconds (inf if starved)."""
    if radio_blocks <= 0:
        return float("inf")
    return path.bits_per_image / (bits_per_rb * radio_blocks)


def end_to_end_latency(path: Path, radio_blocks: int, bits_per_rb: float) -> float:
    """``l_τ = β(q)/(B(σ)·r) + Σ_{s∈π} c(s)`` (Sec. III-A)."""
    return transmission_time(path, radio_blocks, bits_per_rb) + path.compute_time_s


def uplink_tti_s(bits: float, bits_per_rb: float, radio_blocks: int) -> float:
    """Airtime of one frame on a slice of ``radio_blocks`` RBs, TTI-granular.

    A frame of ``β`` bits occupies ``ceil(β / (B·r·TTI))`` subframes, at
    least one; a slice without RBs never delivers (inf).
    """
    throughput = radio_blocks * bits_per_rb
    if throughput <= 0:
        return float("inf")
    subframes = max(1, math.ceil(bits / (throughput * TTI_S) - 1e-12))
    return subframes * TTI_S


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def min_latency_rbs(bits_per_image, bits_per_rb, max_latency_s, compute_time_s):
    """``r_min``: the fewest RBs for which ``β/(B·r) + c ≤ L`` (1g).

    Elementwise over arrays (an ``int64`` array back), or one ``int`` for
    scalars.  A variant whose compute time alone reaches the limit, or
    whose demand exceeds :data:`NO_FIT_RBS`, gets :data:`NO_FIT_RBS`.
    """
    slack = np.subtract(max_latency_s, compute_time_s)
    need = np.ceil(bits_per_image / (bits_per_rb * slack) - 1e-12)
    # fmax maps a 0/0 demand (no bits, vanishing slack) to one RB
    rbs = np.where(slack > 0, np.fmin(np.fmax(need, 1.0), NO_FIT_RBS), NO_FIT_RBS)
    rbs = rbs.astype(np.int64)
    return rbs if rbs.ndim else int(rbs)


def full_rate_rbs(rate_bits: float, bits_per_rb: float) -> int:
    """The fewest RBs (at least one) carrying ``rate_bits`` b/s (1e)."""
    return max(1, math.ceil(rate_bits / bits_per_rb - 1e-12))

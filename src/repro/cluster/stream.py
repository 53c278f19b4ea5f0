"""Activation streams over simulated links.

The :class:`StreamRouter` moves activation frames between nodes over
simulated links (:class:`SimulatedLink`).  A link is DES-timed and
deterministic: a transfer occupies the link FIFO for ``latency + bytes·8/bandwidth``
seconds, with an optional seeded stall process for fault-injection (a
stalled transfer takes ``stall_factor×`` longer, which is how the
runtime's ``transfer_timeout`` drop reason gets exercised).  Nothing here touches
a socket; virtual time comes from the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinkSpec",
    "SimulatedLink",
    "StreamRouter",
]


@dataclass(frozen=True)
class LinkSpec:
    """Static description of one directed node-to-node link."""

    src: str
    dst: str
    bandwidth_bps: float = 1e9
    latency_s: float = 0.0005
    #: probability one transfer stalls (fault injection; 0 = never)
    stall_rate: float = 0.0
    #: duration multiplier applied to a stalled transfer
    stall_factor: float = 50.0

    def __post_init__(self) -> None:
        inf = float("inf")  # chained comparisons also reject NaN
        if not 0 < self.bandwidth_bps < inf:
            raise ValueError("bandwidth_bps must be finite and positive")
        if not 0 <= self.latency_s < inf:
            raise ValueError("latency_s must be finite and >= 0")
        if not 0.0 <= self.stall_rate < 1.0:
            raise ValueError("stall_rate must be in [0, 1)")
        if not 1.0 <= self.stall_factor < inf:
            raise ValueError("stall_factor must be finite and >= 1")


@dataclass
class SimulatedLink:
    """FIFO link with DES-timed transfers and seeded stall injection."""

    spec: LinkSpec
    _busy_until: float = 0.0
    #: bytes carried (headers included), for per-hop accounting
    bytes_transferred: int = 0
    transfers: int = 0
    stalls: int = 0

    def duration(self, nbytes: int) -> float:
        """Nominal (unstalled) occupancy of one ``nbytes`` transfer."""
        return self.spec.latency_s + nbytes * 8.0 / self.spec.bandwidth_bps

    def transfer(
        self, nbytes: int, now: float, rng: np.random.Generator | None = None
    ) -> tuple[float, bool]:
        """Carry ``nbytes`` starting no earlier than ``now``.

        Returns ``(delivery_time, stalled)``.  Transfers of the same
        link queue FIFO; a stall (drawn from ``rng`` against the spec's
        ``stall_rate``) inflates this transfer's duration by
        ``stall_factor`` — the caller decides whether that breaches its
        timeout.
        """
        duration = self.duration(nbytes)
        stalled = False
        if self.spec.stall_rate > 0.0 and rng is not None:
            stalled = bool(rng.random() < self.spec.stall_rate)
            if stalled:
                duration *= self.spec.stall_factor
                self.stalls += 1
        return self.occupy(nbytes, duration, now), stalled

    def occupy(self, nbytes: int, duration: float, now: float) -> float:
        """Hold the link ``duration`` seconds for ``nbytes``, FIFO after the
        transfers before it and no earlier than ``now``: the delivery instant.

        What :meth:`transfer` books once it knows the duration; a caller
        that cached a transfer's nominal :meth:`duration` books it here.
        """
        start = max(now, self._busy_until)
        delivery = self._busy_until = start + duration
        self.bytes_transferred += nbytes
        self.transfers += 1
        return delivery

    def reset(self) -> None:
        self._busy_until = 0.0
        self.bytes_transferred = 0
        self.transfers = 0
        self.stalls = 0


@dataclass
class StreamRouter:
    """Routes activation frames between registered nodes.

    Holds one :class:`SimulatedLink` per directed ``(src, dst)`` pair.
    Missing pairs fall back to ``default_spec`` (a homogeneous mesh),
    created lazily — in deterministic insertion order, since routing is
    driven by the sorted dispatch loop.  A self-hop is free: segment
    boundaries placed on the same node exchange activations in memory.
    """

    links: dict[tuple[str, str], SimulatedLink] = field(default_factory=dict)
    default_spec: LinkSpec | None = None
    #: ship activations as fp16 frames (halves payload bytes)
    fp16_activations: bool = False
    #: ship activations as int8 + scale frames (quarters payload bytes;
    #: exclusive with ``fp16_activations``) — int8 tensors produced by
    #: the quantized engine travel losslessly on this setting
    int8_activations: bool = False

    def __post_init__(self) -> None:
        if self.fp16_activations and self.int8_activations:
            raise ValueError(
                "fp16_activations and int8_activations are mutually exclusive"
            )

    def add_link(self, spec: LinkSpec) -> SimulatedLink:
        link = SimulatedLink(spec=spec)
        self.links[(spec.src, spec.dst)] = link
        return link

    def link(self, src: str, dst: str) -> SimulatedLink:
        key = (src, dst)
        existing = self.links.get(key)
        if existing is not None:
            return existing
        if self.default_spec is None:
            raise KeyError(f"no link {src} -> {dst} and no default spec")
        spec = LinkSpec(
            src=src,
            dst=dst,
            bandwidth_bps=self.default_spec.bandwidth_bps,
            latency_s=self.default_spec.latency_s,
            stall_rate=self.default_spec.stall_rate,
            stall_factor=self.default_spec.stall_factor,
        )
        return self.add_link(spec)

    def transfer_bits(
        self,
        src: str,
        dst: str,
        payload_bits: float,
        now: float,
        rng: np.random.Generator | None = None,
    ) -> tuple[float, bool, int]:
        """Move an abstract activation of ``payload_bits`` from src to dst.

        Returns ``(delivery_time, stalled, frame_bytes)``.  The byte
        count charged is the *encoded* frame size (:meth:`frame_nbytes`).
        """
        if src == dst:
            return now, False, 0
        nbytes = self.frame_nbytes(payload_bits)
        delivery, stalled = self.link(src, dst).transfer(nbytes, now, rng)
        return delivery, stalled, nbytes

    def frame_nbytes(self, payload_bits: float) -> int:
        """Encoded size of one 4-D (N×C×H×W) activation frame of
        ``payload_bits``, with the router's fp16 / int8 knob applied.

        The header is a 13-byte prefix (magic, version, flags, 8-byte
        dtype tag, ndim), 4 bytes per dimension and an 8-byte payload
        length, plus a 4-byte f32 scale for an int8 frame.
        """
        header = 13 + 4 * 4 + 8
        payload_bytes = math.ceil(payload_bits / 8.0)
        if self.int8_activations:
            return header + 4 + (payload_bytes + 3) // 4
        if self.fp16_activations:
            payload_bytes = (payload_bytes + 1) // 2
        return header + payload_bytes

    def reset(self) -> None:
        for link in self.links.values():
            link.reset()

"""Activation streams over simulated links.

The :class:`StreamRouter` moves activation frames, encoded by
:mod:`repro.cluster.wire`, between nodes over simulated links
(:class:`SimulatedLink`).  A link is DES-timed and deterministic: a
transfer occupies the link FIFO for ``latency + bytes·8/bandwidth``
seconds, with an optional seeded stall process for fault-injection (a
stalled transfer takes ``stall_factor×`` longer, which is how the
runtime's ``transfer_timeout`` drop reason gets exercised).  Nothing here touches
a socket; virtual time comes from the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import wire

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
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if not 0.0 <= self.stall_rate < 1.0:
            raise ValueError("stall_rate must be in [0, 1)")
        if self.stall_factor < 1.0:
            raise ValueError("stall_factor must be >= 1")


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
        start = max(now, self._busy_until)
        duration = self.duration(nbytes)
        stalled = False
        if self.spec.stall_rate > 0.0 and rng is not None:
            stalled = bool(rng.random() < self.spec.stall_rate)
            if stalled:
                duration *= self.spec.stall_factor
                self.stalls += 1
        delivery = start + duration
        self._busy_until = delivery
        self.bytes_transferred += nbytes
        self.transfers += 1
        return delivery, stalled

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
        count charged is the *encoded* frame size — wire header plus
        payload, with the router's fp16 knob applied — so the DES pays
        for exactly what :func:`repro.cluster.wire.encode_frame` would
        put on a socket (4-D activations: N×C×H×W).
        """
        if src == dst:
            return now, False, 0
        nbytes = self.frame_nbytes(payload_bits)
        delivery, stalled = self.link(src, dst).transfer(nbytes, now, rng)
        return delivery, stalled, nbytes

    def frame_nbytes(self, payload_bits: float) -> int:
        """Encoded size of one activation frame of ``payload_bits``: wire
        header plus payload, with the router's fp16 / int8 knob applied."""
        payload_bytes = math.ceil(payload_bits / 8.0)
        if self.int8_activations:
            payload_bytes = (payload_bytes + 3) // 4
        elif self.fp16_activations:
            payload_bytes = (payload_bytes + 1) // 2
        return (
            wire.header_nbytes(ndim=4, quantize_int8=self.int8_activations)
            + payload_bytes
        )

    def send_tensor(
        self,
        src: str,
        dst: str,
        tensor: np.ndarray,
        now: float,
        scale: float | None = None,
    ) -> tuple[float, bytes]:
        """Encode a real tensor and time its simulated transfer.

        Returns ``(delivery_time, frame)`` — the frame is the actual
        wire encoding, so tests can assert byte-level determinism on
        what the link carried.  ``scale`` is the producing plan's
        activation scale for int8 tensors (rides in the frame header).
        """
        frame = wire.encode_frame(
            tensor,
            downcast_fp16=self.fp16_activations,
            quantize_int8=self.int8_activations,
            scale=scale,
        )
        if src == dst:
            return now, frame
        delivery, _stalled = self.link(src, dst).transfer(len(frame), now)
        return delivery, frame

    def reset(self) -> None:
        for link in self.links.values():
            link.reset()

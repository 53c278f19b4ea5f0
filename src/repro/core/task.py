"""Inference tasks and quality levels (Sec. III-A).

A task ``τ`` is a CV method (e.g. image classification) applied to the
image stream of one or more mobile devices, with a request rate ``λ_τ``,
a priority ``p_τ ∈ [0, 1]``, a minimum accuracy ``A_τ`` and a maximum
end-to-end latency ``L_τ``.  The task context fixes a quality level
``q_τ`` which determines the number of bits per offloaded image
``β(q_τ)`` and influences the attainable accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["QualityLevel", "Task"]


@dataclass(frozen=True)
class QualityLevel:
    """Input-data quality level ``q ∈ Q_τ``.

    ``bits_per_image`` is ``β(q)``; ``accuracy_factor`` multiplies the
    accuracy a DNN path attains on full-quality input (semantic
    compression trades bits for accuracy, the SEM-O-RAN mechanism).
    ``bits_per_image == 0`` is legal and models inputs already present
    at the edge (cached or pre-staged frames): such a task consumes no
    slice bandwidth beyond its 1-RB control minimum.
    """

    name: str
    bits_per_image: float
    accuracy_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.bits_per_image < float("inf"):
            raise ValueError("bits_per_image must be finite and >= 0")
        if not 0.0 < self.accuracy_factor <= 1.0:
            raise ValueError("accuracy_factor must be in (0, 1]")


#: Default quality: the paper's fixed 350 Kb per image (Table IV).
DEFAULT_QUALITY = QualityLevel(name="full", bits_per_image=350_000.0)


@dataclass(frozen=True)
class Task:
    """One offloadable inference task ``τ ∈ T``."""

    task_id: int
    name: str
    #: CV method implemented by the DNNs, e.g. "classification"
    method: str
    #: priority ``p_τ``: 0 lowest .. 1 highest
    priority: float
    #: request rate ``λ_τ`` in requests per second
    request_rate: float
    #: minimum tolerable accuracy ``A_τ`` (e.g. top-1)
    min_accuracy: float
    #: maximum tolerable end-to-end latency ``L_τ`` in seconds
    max_latency_s: float
    #: possible data quality levels ``Q_τ``
    qualities: tuple[QualityLevel, ...] = field(default=(DEFAULT_QUALITY,))
    #: average SINR ``σ_τ`` (dB) of the devices offloading this task
    sinr_db: float = 20.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.priority <= 1.0:
            raise ValueError(f"priority must be in [0, 1], got {self.priority}")
        if not 0 < self.request_rate < float("inf"):
            raise ValueError("request_rate must be finite and positive")
        if not 0.0 <= self.min_accuracy <= 1.0:
            raise ValueError("min_accuracy must be in [0, 1]")
        if not 0 < self.max_latency_s < float("inf"):
            raise ValueError("max_latency_s must be finite and positive")
        if not self.qualities:
            raise ValueError("a task needs at least one quality level")

    @property
    def default_quality(self) -> QualityLevel:
        """The highest-fidelity quality level."""
        return max(self.qualities, key=lambda q: q.accuracy_factor)

"""Radio-access substrate: RB slicing.

Models the vRAN side of Fig. 4: one radio network slice per admitted
task, and the slice manager the OffloaDNN controller drives (step 4 of
the workflow).  Every RB carries the flat Table IV rate ``B(σ)``
(:class:`repro.core.problem.RadioModel`).
"""

from repro.radio.slicing import Slice, SliceManager

__all__ = ["Slice", "SliceManager"]

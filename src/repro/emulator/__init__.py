"""Discrete-event simulator — the Colosseum substitute's substrate.

The paper validates OffloaDNN on the Colosseum hardware-in-the-loop
emulator (Sec. V-B): an SRN hosts the vRAN base station, the computing
platform and the controller, while 5 SRNs act as UEs offloading tasks
over an emulated 20 MHz LTE cell (100 RBs, 0 dB path loss).

This package holds the discrete-event :class:`Simulator` that
experiment runs on in software.  A frame's uplink airtime on its task's
slice is :func:`repro.core.latency.uplink_tti_s`; the request-level
loop — devices, admission, slice FIFOs, queues, GPU, latency records —
is :mod:`repro.serving`; the Fig. 11 run is
:func:`repro.serving.fig11_runtime`.
"""

from repro.emulator.simulator import Simulator

__all__ = ["Simulator"]

"""Discrete-event simulator and LTE cell — the Colosseum substitute.

The paper validates OffloaDNN on the Colosseum hardware-in-the-loop
emulator (Sec. V-B): an SRN hosts the vRAN base station, the computing
platform and the controller, while 5 SRNs act as UEs offloading tasks
over an emulated 20 MHz LTE cell (100 RBs, 0 dB path loss).

This package holds the two substrates that experiment runs on in
software: the discrete-event :class:`Simulator` and the TTI-granular
:class:`LteCell` uplink (per-task slices at a flat rate).  The
request-level loop on top of them — devices, admission, queues, GPU,
latency records — is :mod:`repro.serving`; the Fig. 11 run is
:func:`repro.serving.fig11_runtime`.
"""

from repro.emulator.simulator import Simulator
from repro.emulator.lte import LteCell, TTI_S

__all__ = ["Simulator", "LteCell", "TTI_S"]

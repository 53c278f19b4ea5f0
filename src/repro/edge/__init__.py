"""Edge platform: the OffloaDNN controller and its resource ledger.

Implements the right-hand side of Fig. 4: the controller driving the
7-step workflow from task admission requests to per-task tickets, and
the ledger of what admitted tasks hold (deployed blocks, compute, slice
RBs) across admission rounds.
"""

from repro.edge.controller import (
    AdmissionError,
    AdmissionTicket,
    OffloaDNNController,
    ResourceLedger,
    admission_tickets,
)

__all__ = [
    "AdmissionError",
    "AdmissionTicket",
    "OffloaDNNController",
    "ResourceLedger",
    "admission_tickets",
]

"""Freelist pooling for the serving data plane's per-request records.

A serving run at 10⁵–10⁶ admitted requests spends a surprising share of
its wall time in the allocator: one :class:`~repro.serving.queueing.
ServingRequest` per request, plus the garbage-collector pressure of
freeing them all between runs.  :class:`RequestPool` keeps every record
ever created and hands them back out on the next run, reset field by
field — the steady-state allocation rate of a repeated benchmark run
drops to zero.

Pooling is safe because the runtime owns the full request lifecycle:
records escape only through ``ServingRuntime.last_requests``, which is
documented to be invalidated by the next ``run()`` on the same runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.catalog import Path
from repro.serving.queueing import UNSET, ServingRequest

__all__ = ["RequestPool"]


@dataclass
class RequestPool:
    """Recycles :class:`ServingRequest` records across serving runs."""

    _items: list[ServingRequest] = field(default_factory=list)
    _used: int = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def in_use(self) -> int:
        return self._used

    def reset(self) -> None:
        """Reclaim every record (start of a new run)."""
        self._used = 0

    def acquire(
        self,
        task_id: int,
        request_id: int,
        path: Path,
        created_at: float,
        deadline_at: float,
        bits: float,
    ) -> ServingRequest:
        """A fresh-looking record, recycled when one is available."""
        if self._used < len(self._items):
            request = self._items[self._used]
            request.task_id = task_id
            request.request_id = request_id
            request.path = path
            request.created_at = created_at
            request.deadline_at = deadline_at
            request.bits = bits
            request.uplink_done_at = UNSET
            request.dispatched_at = UNSET
            request.started_at = UNSET
            request.completed_at = UNSET
            request.compute_time_s = 0.0
            request.drop_reason = None
            request.service_done_at = UNSET
            request.hops = None
        else:
            request = ServingRequest(
                task_id=task_id,
                request_id=request_id,
                path=path,
                created_at=created_at,
                deadline_at=deadline_at,
                bits=bits,
            )
            self._items.append(request)
        self._used += 1
        return request

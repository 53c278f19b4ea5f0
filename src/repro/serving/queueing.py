"""Per-slice request queues with deadlines and backpressure.

Each admitted task owns one radio slice and, on the edge side, one
serving queue.  Queues are bounded (``max_depth``) so an overloaded
task exerts backpressure instead of growing without bound, and they
are deadline-aware: a request that can no longer meet its latency
target ``L_τ`` is dropped at dispatch time rather than wasting GPU
time (the preemptive-dropping regime of deadline-constrained serving).

A queue serves in arrival order.  A task's requests share one slice
and one latency target, so they reach the queue in deadline order
too: arrival order is earliest-deadline-first order, and a full
queue's latest deadline is always the newcomer's.

The queues serve a capped dispatcher (``ServingConfig.max_batch``),
whose windows leave requests behind for later ticks, and the reference
runs in ``tests/oracles.py``.  An uncapped dispatcher empties every
queue on every tick, so nothing waits across ticks: the wave plan
decides each delivery's fate by these rules when it is built
(``repro.serving.engine.WavePlan``) and its ticks touch no queue.
"""

from __future__ import annotations

import enum
import heapq
import sys
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.catalog import Path

__all__ = ["DropReason", "ServingRequest", "ServingQueue", "ReadyQueues"]

#: what :meth:`ServingQueue.pop_ready` and :meth:`ReadyQueues.drain`
#: return when nothing expired (shared: callers only size or iterate it)
_NONE_EXPIRED: tuple = ()

#: the stamp of an event a request has not had (one object: a record left
#: unstamped, recycled or reset compares equal to another inside a tuple)
UNSET = float("nan")


class DropReason(enum.Enum):
    """Why a request left the pipeline without being served."""

    #: shed by the admission gate (the solved ``z_τ`` says: shed it)
    ADMISSION = "admission"
    #: the task's serving queue was full (backpressure)
    QUEUE_FULL = "queue_full"
    #: its deadline expired (or became unreachable) before service
    DEADLINE = "deadline"
    #: a remote segment dispatch failed on its node *and* on the retry
    #: target (cluster serving; see :mod:`repro.cluster.executor`)
    REMOTE_ERROR = "remote_error"
    #: a cross-node activation transfer stalled past its timeout twice
    TRANSFER_TIMEOUT = "transfer_timeout"


@dataclass(slots=True)
class ServingRequest:
    """Lifecycle record of one inference request.

    Slotted: a million-request run allocates these in bulk, and slot
    storage roughly halves the per-record footprint while keeping field
    access a fixed-offset load.  Records are recycled between runs
    through :class:`repro.serving.pool.RequestPool`.
    """

    task_id: int
    request_id: int
    path: Path
    created_at: float
    deadline_at: float
    #: uplink payload β(q) in bits
    bits: float
    uplink_done_at: float = UNSET
    #: when the dispatcher pulled the request out of its queue
    dispatched_at: float = UNSET
    started_at: float = UNSET
    completed_at: float = UNSET
    #: simulated GPU time attributed to this request's window share
    compute_time_s: float = 0.0
    drop_reason: DropReason | None = None
    #: when the request's job finished (cluster runs: its last segment);
    #: the result is back ``result_return_s`` later
    service_done_at: float = UNSET
    #: per-hop journey through the cluster fabric, shared by batch-mates
    #: (None on one node, and until a cluster run's hops are read)
    hops: list | None = None

    @property
    def dropped(self) -> bool:
        return self.drop_reason is not None

    @property
    def completed(self) -> bool:
        return not self.dropped and self.completed_at == self.completed_at

    @property
    def latency_s(self) -> float:
        return self.completed_at - self.created_at

    @property
    def missed_deadline(self) -> bool:
        """Served, but past its latency target."""
        return self.completed and self.completed_at > self.deadline_at + 1e-12


@dataclass
class ServingQueue:
    """Bounded, deadline-aware FIFO queue for one task's slice."""

    task_id: int
    max_depth: int = 32
    _fifo: deque[ServingRequest] = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    def __len__(self) -> int:
        return len(self._fifo)

    def push(self, request: ServingRequest) -> ServingRequest | None:
        """Enqueue; returns the newcomer when the queue is full."""
        if len(self._fifo) >= self.max_depth:
            request.drop_reason = DropReason.QUEUE_FULL
            return request
        self._fifo.append(request)
        return None

    def pop_ready(
        self, now: float
    ) -> tuple[ServingRequest | None, Sequence[ServingRequest]]:
        """Next serviceable request plus any expired ones dropped on the way.

        A request is expired when even zero queueing cannot meet its
        deadline: ``now + Σc(s) > deadline``.
        """
        fifo = self._fifo
        expired: list[ServingRequest] | None = None
        while fifo:
            request = fifo.popleft()
            if now + request.path.compute_time_s > request.deadline_at + 1e-12:
                request.drop_reason = DropReason.DEADLINE
                if expired is None:
                    expired = []
                expired.append(request)
                continue
            return request, expired or _NONE_EXPIRED
        return None, expired or _NONE_EXPIRED


class ReadyQueues:
    """The dispatcher's queue-selection stage: only non-empty queues cost.

    A batching window drains the serving queues in ascending task-id
    order.  Scanning every queue every tick costs ``tasks × ticks``
    whatever the traffic; this index keeps the *positions* (ranks in
    task-id order) of the queues that hold something in a min-heap
    with a membership flag, so a tick touches only queues that were
    pushed to since they last ran empty — no per-tick scan or sort.

    Invariant: a queue is in the heap exactly while it holds a request.
    A queue outside it is empty, and ``pop_ready`` on an empty queue
    decides nothing, so skipping it leaves windows, expiries and their
    order exactly as the full scan would have produced them.
    """

    __slots__ = ("_ordered", "_position", "_heap", "_marked")

    def __init__(self, queues: Mapping[int, ServingQueue]) -> None:
        self._ordered = [queues[task_id] for task_id in sorted(queues)]
        self._position = {
            queue.task_id: position for position, queue in enumerate(self._ordered)
        }
        self._heap: list[int] = []
        self._marked = [False] * len(self._ordered)

    def push(self, request: ServingRequest) -> ServingRequest | None:
        """Enqueue on the request's task queue and mark it ready.

        Returns the backpressure victim, if any.  A queue is never empty
        after a push (depth ≥ 1 keeps the newcomer or its elders).
        """
        position = self._position[request.task_id]
        if not self._marked[position]:
            self._marked[position] = True
            heapq.heappush(self._heap, position)
        return self._ordered[position].push(request)

    def holds_work(self) -> bool:
        """Whether any serving queue holds a request: only indexed queues
        do, and every indexed queue does."""
        return bool(self._heap)

    def drain(
        self, now: float, max_batch: int | None = None
    ) -> tuple[list[ServingRequest], Sequence[ServingRequest]]:
        """One window: ``(dispatched, expired)``, both in task-id order.

        Ready queues are emptied lowest task id first.  A queue leaves
        the index as soon as its deque is empty, so ``pop_ready`` runs
        once per dispatched request, plus once for a queue that expiries
        empty; when ``max_batch`` fills the window first, the queue being
        drained (if anything is left in it) and every later one stay
        indexed, untouched, for the next tick.
        """
        window: list[ServingRequest] = []
        expired: list[ServingRequest] | None = None  # made on the first expiry
        heap = self._heap
        limit = sys.maxsize if max_batch is None else max_batch
        while heap and len(window) < limit:
            position = heap[0]
            queue = self._ordered[position]
            fifo, pop_ready = queue._fifo, queue.pop_ready
            while True:
                request, dropped = pop_ready(now)
                if dropped:
                    if expired is None:
                        expired = []
                    expired += dropped
                if request is not None:
                    request.dispatched_at = now
                    window.append(request)
                if not fifo:
                    heapq.heappop(heap)
                    self._marked[position] = False
                    break
                if len(window) >= limit:
                    break
        return window, expired or _NONE_EXPIRED

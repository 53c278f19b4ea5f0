"""Serving queues: ordering, backpressure and deadline-aware dropping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import Block, Path
from repro.core.task import QualityLevel
from repro.serving.queueing import (
    DropReason,
    ReadyQueues,
    ServingQueue,
    ServingRequest,
)
from tests.oracles import FullScanQueues

QUALITY = QualityLevel(name="full", bits_per_image=350_000.0)


def make_path(compute_time_s: float = 0.01) -> Path:
    block = Block("b", "d", compute_time_s=compute_time_s, memory_gb=0.1)
    return Path("p", "d", 1, (block,), accuracy=0.9, quality=QUALITY)


def make_request(request_id: int, deadline_at: float, created_at: float = 0.0,
                 compute_time_s: float = 0.01) -> ServingRequest:
    return ServingRequest(
        task_id=1,
        request_id=request_id,
        path=make_path(compute_time_s),
        created_at=created_at,
        deadline_at=deadline_at,
        bits=350_000.0,
    )


class TestFifoQueue:
    def test_arrival_order(self):
        queue = ServingQueue(task_id=1)
        for i, deadline in enumerate([0.9, 0.1, 0.5]):
            assert queue.push(make_request(i, deadline)) is None
        order = [queue.pop_ready(0.0)[0].request_id for _ in range(3)]
        assert order == [0, 1, 2]

    def test_full_queue_drops_newcomer(self):
        queue = ServingQueue(task_id=1, max_depth=2)
        assert queue.push(make_request(0, 1.0)) is None
        assert queue.push(make_request(1, 1.0)) is None
        victim = queue.push(make_request(2, 1.0))
        assert victim is not None
        assert victim.request_id == 2
        assert victim.drop_reason is DropReason.QUEUE_FULL
        assert len(queue) == 2


class TestDeadlineDropping:
    def test_expired_dropped_at_pop(self):
        queue = ServingQueue(task_id=1)
        queue.push(make_request(0, deadline_at=0.1))
        queue.push(make_request(1, deadline_at=5.0))
        request, expired = queue.pop_ready(now=1.0)
        assert request.request_id == 1
        assert [r.request_id for r in expired] == [0]
        assert expired[0].drop_reason is DropReason.DEADLINE

    def test_unreachable_deadline_dropped(self):
        # deadline nominally in the future, but the path's compute time
        # alone cannot fit: now + Σc > deadline
        queue = ServingQueue(task_id=1)
        queue.push(make_request(0, deadline_at=1.05, compute_time_s=0.2))
        request, expired = queue.pop_ready(now=1.0)
        assert request is None
        assert len(expired) == 1

    def test_empty_pop(self):
        request, expired = ServingQueue(task_id=1).pop_ready(0.0)
        assert request is None and len(expired) == 0


class TestValidation:
    def test_bad_depth(self):
        with pytest.raises(ValueError):
            ServingQueue(task_id=1, max_depth=0)


class TestServingRequest:
    def test_lifecycle_flags(self):
        request = make_request(0, deadline_at=0.5)
        assert not request.completed and not request.dropped
        request.completed_at = 0.4
        assert request.completed and not request.missed_deadline
        request.completed_at = 0.6
        assert request.missed_deadline
        assert request.latency_s == pytest.approx(0.6)

    def test_dropped_never_completed(self):
        request = make_request(0, deadline_at=0.5)
        request.drop_reason = DropReason.ADMISSION
        request.completed_at = 0.4
        assert request.dropped and not request.completed


# -- ready-queue index vs the full scan it replaced -------------------------


def _queue_contents(queue: ServingQueue) -> list[int]:
    """Request ids still queued, in pop order."""
    return [request.request_id for request in queue._fifo]


# one step: push (task, deadline, compute time) or drain at (time advance)
_pushes = st.tuples(
    st.just("push"),
    st.integers(0, 5),
    st.floats(0.0, 2.0, allow_nan=False),
    st.sampled_from([0.01, 0.2]),
)
_drains = st.tuples(st.just("drain"), st.floats(0.0, 0.3, allow_nan=False))


class TestReadyQueuesMatchFullScan:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.one_of(_pushes, _drains), max_size=60),
        max_depth=st.integers(1, 4),
        max_batch=st.sampled_from([None, 1, 3]),
    )
    def test_same_windows_expiries_and_leftovers(
        self, steps, max_depth, max_batch
    ):
        def build(index_type):
            queues = {
                # ids out of insertion order: drain order is by task id
                tid: ServingQueue(task_id=tid, max_depth=max_depth)
                for tid in (3, 0, 5, 1, 4, 2)
            }
            return queues, index_type(queues)

        queues, index = build(ReadyQueues)
        ref_queues, reference = build(FullScanQueues)
        now = 0.0
        for request_id, step in enumerate(steps):
            if step[0] == "push":
                _, task_id, slack, compute_time_s = step
                victims = []
                for target in (index, reference):
                    request = make_request(
                        request_id, deadline_at=now + slack,
                        created_at=now, compute_time_s=compute_time_s,
                    )
                    request.task_id = task_id
                    victim = target.push(request)
                    victims.append(victim and (victim.request_id, victim.drop_reason))
                assert victims[0] == victims[1]
            else:
                now += step[1]
                window, expired = index.drain(now, max_batch)
                ref_window, ref_expired = reference.drain(now, max_batch)
                assert [(r.task_id, r.request_id, r.dispatched_at) for r in window] == [
                    (r.task_id, r.request_id, r.dispatched_at) for r in ref_window
                ]
                assert [(r.request_id, r.drop_reason) for r in expired] == [
                    (r.request_id, r.drop_reason) for r in ref_expired
                ]
            assert index.holds_work() == reference.holds_work()
        for tid in queues:
            assert _queue_contents(queues[tid]) == _queue_contents(ref_queues[tid])

    def test_max_batch_leaves_later_queues_indexed(self):
        queues = {tid: ServingQueue(task_id=tid) for tid in (2, 1)}
        index = ReadyQueues(queues)
        for request_id, task_id in enumerate((2, 1, 1)):
            request = make_request(request_id, deadline_at=9.0)
            request.task_id = task_id
            index.push(request)
        window, _ = index.drain(0.0, max_batch=1)
        assert [r.request_id for r in window] == [1]
        window, _ = index.drain(0.0, max_batch=5)
        assert [(r.task_id, r.request_id) for r in window] == [(1, 2), (2, 0)]
        assert index.drain(0.0) == ([], ())

    def test_a_queue_emptied_by_max_batch_holds_no_work(self):
        # max_batch closes the window on the queue's last request: the
        # queue leaves the index with it
        queues = {tid: ServingQueue(task_id=tid) for tid in (1, 2)}
        index = ReadyQueues(queues)
        assert not index.holds_work()
        request = make_request(0, deadline_at=9.0)
        request.task_id = 2
        index.push(request)
        assert index.holds_work()
        window, _ = index.drain(0.0, max_batch=1)
        assert [r.request_id for r in window] == [0]
        assert not index.holds_work()
        assert index._heap == [] and not any(index._marked)

    def test_an_emptied_queue_leaves_the_index_at_once(self, monkeypatch):
        # pop_ready runs once per dispatched request, plus once for a queue
        # that expiries empty: never again only to find a queue empty
        calls = []
        pop_ready = ServingQueue.pop_ready

        def counted(queue, now):
            calls.append(queue.task_id)
            return pop_ready(queue, now)

        monkeypatch.setattr(ServingQueue, "pop_ready", counted)
        queues = {tid: ServingQueue(task_id=tid) for tid in (1, 2, 3)}
        index = ReadyQueues(queues)
        # task 1: three servable; task 2: two expired; task 3: one expired,
        # then one servable
        for request_id, (task_id, deadline) in enumerate(
            [(1, 9.0), (1, 9.0), (1, 9.0), (2, 0.5), (2, 0.5), (3, 0.5), (3, 9.0)]
        ):
            request = make_request(request_id, deadline_at=deadline)
            request.task_id = task_id
            index.push(request)
        window, expired = index.drain(1.0)
        assert [r.request_id for r in window] == [0, 1, 2, 6]
        assert [r.request_id for r in expired] == [3, 4, 5]
        assert calls == [1, 1, 1, 2, 3]
        assert index._heap == [] and not any(index._marked)
        assert not index.holds_work()
        calls.clear()
        assert index.drain(2.0) == ([], ())
        assert calls == []

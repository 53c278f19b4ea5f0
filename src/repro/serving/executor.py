"""Worker-pool path executor with shared-block prefix caching.

The executor drains one *batching window* of requests at a time, cuts it
into jobs that fit their members' deadlines (one job per worker at
most, :func:`cut_window`) and books each on a :class:`WorkerPool`
(:func:`_book_jobs`); each cluster node cuts and books its share of a
window by the same two on its own pool.  Costs are grounded in what
the profiler measured per block and the DOT solver already consumes:
``c(s)`` for one sample and the block's batch law for more — a block processing a
batch of ``n`` requests costs

    ``c(s) · (1 + (n − 1) · batch_marginal(s))``

with ``batch_marginal`` a datum of the block
(:class:`repro.core.catalog.Block`), not an option of the run.

**Shared-block prefix cache.**  Paths that OffloaDNN couples through
shared frozen blocks traverse identical block *prefixes* before
diverging into their fine-tuned suffixes.  With the cache enabled the
requests of one job are merged along a prefix trie: every trie node is
one fused batch through one block, so a frozen trunk shared by k paths
runs once over the union batch instead of k times over the split
batches.  While a block's marginal is below 1 (the engine's int8 plans,
most fp32 ones) merging two same-job requests that share it saves GPU
time; a block that measures above 1 (CONFIG A in fp32) costs *more*
fused, and the window report says so (a negative ``saved_s``).  Either
way fusing costs latency once the job outlasts its tightest member's
slack, which is where the window is cut.  Disabled,
each path's batch pays its full block sequence independently — exactly
the dedicated-DNN (SEM-O-RAN-style) serving discipline.

:class:`BlockwiseRunner` is the tensor-level counterpart: it executes
the compiled plans of real numpy modules block by block, memoizing
activations at frozen-prefix boundaries so one input evaluated under
several coupled paths computes the shared trunk once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.catalog import Path
from repro.dnn.layers import Layer
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, current_tracer
from repro.serving.queueing import ServingRequest

__all__ = ["WindowReport", "WorkerPool", "BatchExecutor", "BlockwiseRunner"]


class WindowReport(NamedTuple):
    """Accounting for one executed batching window.

    What ``dispatch`` returns.  The window log
    (:attr:`WindowLedger.windows`) keeps each window as the exact tuple
    of the same fields, in this order: CPython untracks an exact
    ``tuple`` of atoms once it survives a collection, never an instance
    of a subclass, so a run's log leaves the cyclic collector's view.
    """

    requests: int
    #: simulated GPU seconds charged for the window
    compute_s: float
    #: what the same window would cost without prefix merging
    unshared_compute_s: float
    #: trie nodes where ≥ 2 distinct paths were fused
    prefix_merges: int
    started_at: float
    finished_at: float

    @property
    def saved_s(self) -> float:
        return self.unshared_compute_s - self.compute_s


def _window_costs(groups) -> tuple[float, float, int]:
    """(merged cost, unmerged cost, merge count) for one window.

    ``groups`` partitions the window into ``(path id, blocks, count)``
    runs in first-seen order — whole paths for the single-node executor,
    per-node *segments* for the cluster executor, so fusion happens over
    exactly the blocks co-placed on one node.  The merged cost walks a
    prefix trie over the block-id sequences, once per group; the unmerged
    cost batches per (path, block sequence) only.  Sums run in first-seen
    order, so the floats are those of a request-by-request walk.

    The one place the batch law is applied: a trie node, and an unmerged
    batch, is charged by the block it runs.
    """

    def charge(block, n: int) -> float:
        return block.compute_time_s * (1.0 + (n - 1) * block.batch_marginal)

    if len(groups) == 1:
        # one run (most windows of a sparse deployment, every later cluster
        # hop): its trie is its block sequence, with nothing to merge
        ((_path_id, blocks, n),) = groups
        cost = sum(charge(block, n) for block in blocks)
        return cost, cost, 0
    # trie node: [block, requests, first path id, fused?, children]
    nodes: list[list] = []
    root: dict[str, list] = {}
    # (path id, the sequence's last trie level) -> [blocks, requests]
    by_path: dict[tuple, list] = {}
    for path_id, blocks, n in groups:
        children = root
        for block in blocks:
            node = children.get(block.block_id)
            if node is None:
                node = [block, n, path_id, False, {}]
                children[block.block_id] = node
                nodes.append(node)
            else:
                node[1] += n
                if node[2] != path_id:
                    node[3] = True
            children = node[4]
        tally = by_path.setdefault((path_id, id(children)), [blocks, 0])
        tally[1] += n

    merged = sum(charge(node[0], node[1]) for node in nodes)
    unmerged = sum(
        charge(block, n) for blocks, n in by_path.values() for block in blocks
    )
    return merged, unmerged, sum(node[3] for node in nodes)


class WorkerPool:
    """Per-worker free times: the one place a job is assigned to a worker."""

    def __init__(self, num_workers: int = 1) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.free_at = [0.0] * num_workers

    def claim(
        self, cost_s: float, ready_at: float, worker: int | None = None
    ) -> tuple[int, float, float]:
        """Book ``cost_s`` of work ready at ``ready_at``: (worker, start, finish).

        On ``worker`` if one is named (see :meth:`slots`), else on the
        earliest-free worker, lowest index on ties.
        """
        free_at = self.free_at
        if worker is None:
            worker = free_at.index(min(free_at))
        start = max(ready_at, free_at[worker])
        finish = start + cost_s
        free_at[worker] = finish
        return worker, start, finish

    def slots(self, now: float) -> Iterator[tuple[int, float]]:
        """``(worker, start)`` of the jobs ready at ``now``, soonest first.

        The idle workers by index, then the busy ones as they free (lowest
        index on ties).  Lazy: a window of two jobs looks no further than
        the second idle worker.
        """
        busy = []
        for worker, free_at in enumerate(self.free_at):
            if free_at <= now:
                yield worker, now
            else:
                busy.append((free_at, worker))
        busy.sort()
        for free_at, worker in busy:
            yield worker, free_at

    def busy_workers(self, now: float) -> int:
        """Workers still executing at virtual time ``now`` (sampler probe)."""
        return sum(1 for free_at in self.free_at if free_at > now)


@dataclass(kw_only=True)
class WindowLedger:
    """What both executors share: the prefix-cache switch, the cut's
    deadline margin and the window log.  A window closes over the jobs it
    was cut into, each a fused batch on a worker of a pool: the
    executor's own, or each cluster node's it reached, hop by hop.
    """

    prefix_cache: bool = True
    #: what a finished request still spends on the downlink: the part of
    #: its deadline no job may use
    result_return_s: float = 0.0
    #: DES-clock tracer recording one span per executed job
    tracer: Tracer | NullTracer = NULL_TRACER
    #: one exact tuple per window, in :class:`WindowReport` field order
    windows: list[tuple] = field(default_factory=list)
    total_compute_s: float = 0.0
    compute_saved_s: float = 0.0
    prefix_merges: int = 0

    def _log_window(
        self,
        requests: int,
        compute_s: float,
        unshared_s: float,
        merges: int,
        started_at: float,
        finished_at: float,
    ) -> WindowReport:
        """Log one executed window and the run totals; return its report."""
        window = (
            requests,
            compute_s,
            unshared_s,
            merges if self.prefix_cache else 0,
            started_at,
            finished_at,
        )
        self.windows.append(window)
        self.total_compute_s += compute_s
        if self.prefix_cache:
            self.compute_saved_s += unshared_s - compute_s
            self.prefix_merges += merges
        # the report over the same values, without the keyword-parsing constructor
        return tuple.__new__(WindowReport, window)

    def _window_span(
        self,
        track: str,
        started_at: float,
        span_s: float,
        requests: int,
        merges: int,
        saved_s: float,
    ) -> None:
        """One ``window`` span: a stretch of ``track`` spent on a fused batch."""
        self.tracer.record(
            "window",
            started_at,
            span_s,
            cat="executor",
            track=track,
            args={"requests": requests, "merges": merges, "saved_s": saved_s},
        )


class _JobCost:
    """What one job costs, and (memoised) the jobs one request larger."""

    __slots__ = ("cost", "unshared", "merges", "groups", "grown")

    def __init__(self, cost: float, unshared: float, merges: int, groups: tuple):
        #: what the job is charged (``unshared`` with the prefix cache off)
        self.cost = cost
        self.unshared = unshared
        self.merges = merges
        #: the job's signature, see :class:`_JobCosts`
        self.groups = groups
        #: id(path) -> the job holding one more request on that path
        self.grown: dict[int, _JobCost] = {}


class _JobCosts:
    """One run's memo of job costs, walked a request at a time.

    Cutting a window asks "what would this job cost with one more request
    on path p" for every request, and a run sees the same few path mixes
    over and over.  So the answers form a graph: a node per path-count
    signature ``(path index, requests, path index, requests, …)`` in
    index order (:class:`_JobCost`), an edge per added path, entered at
    :attr:`empty`.  A hit is one dict lookup on the node the job already
    holds; a miss costs the signature by :func:`_window_costs`, on one CPU
    (``cpu_scale``), reading a request as ``unit(request)`` (its path).
    A job left whole (:meth:`window`) is the node of its signature in
    window order, a batch on one path (:meth:`batch`) the node of its one
    group.
    """

    #: signatures held before the memo starts over
    LIMIT = 8192

    def __init__(
        self, prefix_cache: bool, cpu_scale: float = 1.0, unit=attrgetter("path")
    ) -> None:
        self.prefix_cache = prefix_cache
        self.cpu_scale = cpu_scale
        self.unit = unit
        #: distinct units in first-seen order (held, so their ids stay theirs)
        self.paths: list[Path] = []
        self._index: dict[int, int] = {}
        self._by_groups: dict[tuple, _JobCost] = {}
        self.empty = _JobCost(0.0, 0.0, 0, ())

    def _costs(self, signature: tuple) -> _JobCost:
        """The node of ``signature``, its groups costed in signature order."""
        costs = self._by_groups.get(signature)
        if costs is None:
            if len(self._by_groups) >= self.LIMIT:
                # start over; jobs being built keep the nodes they hold
                self._by_groups = {}
                self.empty = _JobCost(0.0, 0.0, 0, ())
            paths = self.paths
            merged, unmerged, merges = _window_costs(
                [
                    (paths[i].path_id, paths[i].blocks, n)
                    for i, n in zip(signature[::2], signature[1::2])
                ]
            )
            unmerged = unmerged / self.cpu_scale
            cost = merged / self.cpu_scale if self.prefix_cache else unmerged
            costs = self._by_groups[signature] = _JobCost(
                cost, unmerged, merges, signature
            )
        return costs

    def _index_of(self, path: Path) -> int:
        # by identity (the memo holds the path): hashing a frozen path
        # would hash every block of it
        index = self._index.get(id(path))
        if index is None:
            index = self._index[id(path)] = len(self.paths)
            self.paths.append(path)
        return index

    def batch(self, unit: Path, requests: int) -> _JobCost:
        """One job of ``requests`` requests, all on ``unit``."""
        return self._costs((self._index_of(unit), requests))

    def window(self, requests: list[ServingRequest]) -> _JobCost:
        """``requests`` as one job, their paths costed in first-seen order."""
        if len(requests) == 1:  # the empty job's edge: one dict lookup on a hit
            path = self.unit(requests[0])
            return self.empty.grown.get(id(path)) or self.grow(self.empty, path)
        counts: dict[int, int] = {}
        for path in map(self.unit, requests):
            index = self._index_of(path)
            counts[index] = counts.get(index, 0) + 1
        return self._costs(tuple(chain.from_iterable(counts.items())))

    def grow(self, job: _JobCost, path: Path) -> _JobCost:
        """``job`` plus one request on ``path`` (the miss behind ``job.grown``)."""
        index = self._index_of(path)
        groups = job.groups
        at = 0
        while at < len(groups) and groups[at] < index:
            at += 2
        if at < len(groups) and groups[at] == index:
            groups = (*groups[: at + 1], groups[at + 1] + 1, *groups[at + 2 :])
        else:
            groups = (*groups[:at], index, 1, *groups[at:])
        grown = job.grown[id(path)] = self._costs(groups)
        return grown


@dataclass(slots=True)
class Job:
    """One fused batch of a window, to run on one worker."""

    #: window order in a window left whole, EDF order in a cut one
    members: list[ServingRequest]
    costs: _JobCost
    #: the worker the job was cut for (None: the earliest-free one), then ran on
    worker: int | None = None
    #: what the tightest (first) member's deadline leaves for computing
    #: once that worker is free
    slack_s: float = float("inf")


_deadline_at = attrgetter("deadline_at")


def cut_window(
    pool: WorkerPool, memo: _JobCosts, requests, now: float, result_return_s: float
) -> list[Job]:
    """Cut one window ready at ``now`` into jobs, each for a worker of ``pool``.

    Workers are taken as :meth:`WorkerPool.slots` hands them out (idle,
    then as they free).  The window is walked in EDF order and every
    family of units (same first block: what the trie can fuse at all) is
    cut into consecutive jobs: a request joins its family's open job
    while the fused cost (``memo``) still fits the slack of the job's
    tightest — first — member, ``deadline_at − job start −
    result_return_s``, and opens the next job otherwise.  Once every
    worker has a job, a request joins its family's open job fit or not,
    and a family without one the job opened last (the latest deadlines).
    On one worker, and for a window of one, the window is one job on the
    earliest-free worker, costed in window order as it always was.
    """
    if len(pool.free_at) < 2 or len(requests) < 2:
        return [Job(requests, memo.window(requests))]
    empty = memo.empty
    grow = memo.grow
    slots = pool.slots(now)
    jobs: list[Job] = []
    open_jobs: dict[str, Job] = {}
    ordered = sorted(requests, key=_deadline_at)
    for request, path in zip(ordered, map(memo.unit, ordered)):
        family = path.blocks[0].block_id
        job = open_jobs.get(family)
        if job is not None:
            costs = job.costs
            costs = costs.grown.get(id(path)) or grow(costs, path)
            if costs.cost <= job.slack_s:
                job.members.append(request)
                job.costs = costs
                continue
        slot = next(slots, None)
        if slot is not None:
            worker, start = slot
            job = open_jobs[family] = Job(
                [request],
                empty.grown.get(id(path)) or grow(empty, path),
                worker,
                request.deadline_at - (start + result_return_s),
            )
            jobs.append(job)
            continue
        if job is None:
            job = open_jobs[family] = jobs[-1]
            costs = job.costs
            costs = costs.grown.get(id(path)) or grow(costs, path)
        job.members.append(request)
        job.costs = costs
    return jobs


def _book_jobs(jobs: list[Job], claim, now: float) -> tuple:
    """Book jobs ready at ``now`` by ``claim`` (a pool's, or a node's ``execute``),
    stamping each member with its job's start, finish and cost share:
    ``(compute, unshared, merges, first start, last finish)``."""
    compute = unshared = 0.0
    merges = 0
    started_at, finished_at = float("inf"), now
    for job in jobs:
        costs = job.costs
        cost = costs.cost
        job.worker, start, finish = claim(cost, now, job.worker)
        share = cost / len(job.members)
        for request in job.members:
            request.started_at = start
            request.compute_time_s = share
            request.service_done_at = finish
        started_at = min(started_at, start)
        finished_at = max(finished_at, finish)
        compute += cost
        unshared += costs.unshared
        merges += costs.merges
    return compute, unshared, merges, started_at, finished_at


@dataclass
class BatchExecutor(WindowLedger):
    """Pool of GPU workers executing batching windows.

    A window is cut into jobs (:meth:`cut`), at most one per worker; each
    job is one fused batch on its own :class:`WorkerPool` worker, and a
    request finishes with its job, not with its window.  Several windows
    can be in flight on different workers.
    """

    num_workers: int = 1
    pool: WorkerPool = field(init=False, repr=False)
    #: the run's job-cost memo
    _memo: _JobCosts = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.pool = WorkerPool(self.num_workers)
        self._memo = _JobCosts(self.prefix_cache)

    def cut(self, requests: list[ServingRequest], now: float) -> list[Job]:
        """:func:`cut_window` on this executor's pool."""
        return cut_window(self.pool, self._memo, requests, now, self.result_return_s)

    def dispatch(self, requests: list[ServingRequest], now: float) -> WindowReport:
        """Execute one window; stamps the requests and returns the report."""
        if not requests:
            raise ValueError("cannot dispatch an empty window")
        jobs = cut_window(self.pool, self._memo, requests, now, self.result_return_s)
        compute, unshared, merges, started_at, finished_at = _book_jobs(
            jobs, self.pool.claim, now
        )
        if self.tracer.enabled:
            for job in jobs:
                costs = job.costs
                self._window_span(
                    f"worker{job.worker}", job.members[0].started_at, costs.cost,
                    len(job.members), costs.merges if self.prefix_cache else 0,
                    costs.unshared - costs.cost,
                )
        return self._log_window(
            len(requests), compute, unshared, merges, started_at, finished_at
        )

    def busy_workers(self, now: float) -> int:
        """Workers still executing at virtual time ``now`` (sampler probe)."""
        return self.pool.busy_workers(now)

    def utilization(self, duration_s: float) -> float:
        """Mean fraction of ``duration_s`` the workers spent computing."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        return min(1.0, self.total_compute_s / (self.num_workers * duration_s))


@dataclass
class BlockwiseRunner:
    """Run a path's real numpy blocks, caching frozen-prefix activations.

    ``modules`` maps ``block_id`` to the :mod:`repro.dnn.graph` module
    implementing the block; ``cacheable`` limits memoization to frozen
    (shared) blocks — fine-tuned suffixes always recompute.  The cache
    is keyed by ``(input_key, batch size, precision, block-id prefix)``,
    so one input tensor evaluated under several paths reuses the shared
    trunk's activations — but only within one numeric format (fp32 and
    int8 executions of the same trunk produce different tensors and
    must never serve each other) and never for an input with a
    different number of samples under a reused key.

    ``input_key`` names the input: calls with one key (and batch size)
    are taken to carry the same tensor.  ``None``, the default, names
    nothing: the run neither reads nor fills the cache or its counters.

    An activation is kept only where a second path can pick it up: at
    the end of the path's cacheable prefix and wherever another path the
    runner has run leaves it (their longest common prefix).  Paths are
    learned as they run, so a newly seen path may miss once at a branch
    point nothing had a reason to store before.

    The cache is a bounded LRU: a long-lived runtime would otherwise
    retain one activation tensor per ``(input_key, prefix)`` forever.
    ``cache_capacity=None`` removes the bound; evictions are counted in
    ``cache_evictions`` next to the hit/miss counters, and
    ``cache_bytes`` is what the resident entries hold.

    A path's blocks are compiled into fused execution plans
    (:mod:`repro.dnn.compile`) the first time the path runs on a given
    input shape, and the plans serve subsequent calls; there is no eager
    mode (``compile_blocks`` only accepts ``True``).  An int8 block
    calibrates on what its predecessors make of the calibration batch —
    the activation it will really see — so its plan is keyed by the
    block-id prefix it was reached through as well.  Plans snapshot
    block weights — call :meth:`clear_compiled` after mutating the
    underlying modules (pruning, fine-tuning).

    Every block runs in the calling thread: a compiled plan binds to
    that thread's buffer arena (:mod:`repro.dnn.compile`), so runners
    on different threads share plans but never scratch memory.
    """

    modules: dict[str, Layer]
    cacheable: frozenset[str] = frozenset()
    #: max cached activations; None = unbounded
    cache_capacity: int | None = 256
    compile_blocks: bool = True
    #: execute blocks as int8 quantized plans (``"int8"``) — activations
    #: cached under this mode are precision-tagged so fp32 and int8 runs
    #: never share tensors
    quantize: str | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    _cache: OrderedDict[tuple[int, int, str, tuple[str, ...]], np.ndarray] = field(
        default_factory=OrderedDict
    )
    #: (block id, quantize, input shape, int8: block-id prefix) -> plan
    _compiled: dict[tuple, Layer] = field(default_factory=dict)
    #: block ids of every path run -> where other known paths leave it
    #: (lengths of their longest common prefixes)
    _branches: dict[tuple[str, ...], set[int]] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1 or None")
        if not self.compile_blocks:
            raise ValueError(
                f"BlockwiseRunner(compile_blocks={self.compile_blocks!r}): "
                "compiled plans are the only inference route"
            )
        if self.quantize not in (None, "int8"):
            raise ValueError(f"unsupported quantize mode: {self.quantize!r}")

    @property
    def precision(self) -> str:
        """Numeric format this runner executes blocks at."""
        return self.quantize or "fp32"

    def _plans(
        self, block_ids: tuple[str, ...], shape: tuple[int, ...]
    ) -> list[Layer]:
        """The path's plans for inputs of ``shape``, compiled on first sight.

        A block compiled alone would calibrate its int8 activation scales
        on noise at its own input shape; here each block gets the fp32
        output of the plan before it (``calibration_output``), starting
        from ``compile_module``'s default batch at the path input.
        """
        from repro.dnn.compile import compile_module

        plans = []
        calibration = None
        for i, block_id in enumerate(block_ids):
            prefix = block_ids[:i] if self.quantize else ()
            key = (block_id, self.quantize, shape, prefix)
            plan = self._compiled.get(key)
            if plan is None:
                plan = self._compiled[key] = compile_module(
                    self.modules[block_id],
                    shape,
                    quantize=self.quantize,
                    calibration=calibration,
                )
            if self.quantize:
                calibration = plan.calibration_output
            shape = plan.out_shape
            plans.append(plan)
        return plans

    @property
    def cache_bytes(self) -> int:
        """Bytes the resident cache entries hold."""
        return sum(x.nbytes for x in self._cache.values())

    def _branch_points(self, block_ids: tuple[str, ...]) -> set[int]:
        """Prefix lengths at which another known path leaves this one."""
        points = self._branches.get(block_ids)
        if points is None:
            points = set()
            for other, theirs in self._branches.items():
                common = next(
                    (i for i, (a, b) in enumerate(zip(block_ids, other)) if a != b),
                    min(len(block_ids), len(other)),
                )
                points.add(common)
                theirs.add(common)
            self._branches[block_ids] = points
        return points

    def _remember(self, key: tuple, x: np.ndarray) -> None:
        self._cache[key] = x
        self._cache.move_to_end(key)
        if self.cache_capacity is not None and len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)
            self.cache_evictions += 1

    def run(
        self, path: Path, x: np.ndarray, input_key: int | None = None
    ) -> np.ndarray:
        missing = [b.block_id for b in path.blocks if b.block_id not in self.modules]
        if missing:
            raise KeyError(f"no modules bound for blocks {missing}")
        block_ids = tuple(b.block_id for b in path.blocks)
        # Cache entries are tagged with the executing precision: an fp32
        # and an int8 path sharing a trunk must never serve each other's
        # activations (they are numerically different tensors).
        # ... and with the number of samples: a key reused for an input
        # of another batch size is a miss, not that other input's tensor.
        tag = (input_key, x.shape[0], self.precision)
        layers = self._plans(block_ids, tuple(x.shape[1:]))
        # prefix lengths that may hold an entry, longest first: the end of
        # the cacheable prefix and wherever another known path leaves it
        keep: list[int] = []
        if input_key is not None:
            depth = next(
                (i for i, bid in enumerate(block_ids) if bid not in self.cacheable),
                len(block_ids),
            )
            points = self._branch_points(block_ids) | {depth}
            keep = sorted((p for p in points if 0 < p <= depth), reverse=True)
        start = 0
        for i in keep:
            key = (*tag, block_ids[:i])
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                x = cached
                start = i
                self.cache_hits += 1
                break
        if start == 0 and input_key is not None:
            self.cache_misses += 1
        tracer = current_tracer()
        for i in range(start, len(block_ids)):
            if tracer.enabled:
                with tracer.span(
                    f"block.{block_ids[i]}", cat="runner", track="blockwise"
                ):
                    x = layers[i].forward(x)
            else:
                x = layers[i].forward(x)
            if i + 1 in keep:
                self._remember((*tag, block_ids[: i + 1]), x)
        return x

    def clear(self) -> None:
        """Drop the cached activations (not what was learned about paths)."""
        self._cache.clear()

    def clear_compiled(self) -> None:
        """Drop compiled plans (stale after mutating the modules)."""
        self._compiled.clear()

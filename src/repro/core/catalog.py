"""DNN blocks, paths, and the repository catalog (Sec. III-A).

A *dynamic DNN structure* ``d ∈ D`` is built from blocks ``s^d ∈ S^d``
(one or more layers, possibly pruned by an arbitrary factor).  The
sequence of blocks serving task ``τ`` is a *path* ``π^d_τ ∈ Π^d_τ``.
Two paths that contain the same block (same ``block_id``) share its
memory and its training cost — the central coupling the DOT problem
optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.task import QualityLevel, Task

__all__ = ["DEFAULT_BATCH_MARGINAL", "INT8_ACCURACY_DROP", "Block", "Path", "Catalog"]

#: What a block is charged per extra sample of a fused batch when nobody
#: measured it: the engine-wide fit of ``t(n) = t(1)·(1 + (n − 1)·m)``
#: (least squares on the relative error) over the fp32 and int8 rows of the
#: committed ``BENCH_engine.json`` (Table I configs, width 64, n = 8 and 32;
#: host clock, numpy wall; fp32 alone fits 0.99, int8 0.65).  Re-derive it
#: with ``python -m benchmarks.bench_engine --fit-default``.
DEFAULT_BATCH_MARGINAL = 0.76

#: Top-1 accuracy an int8 variant is charged below its fp32 twin when
#: nobody measured it: post-training symmetric quantization on these
#: depths loses well under a point, and the catalog prices it
#: conservatively.  Read by the profiled catalog
#: (``repro.dnn.repository``) and the scenario cost basis
#: (``repro.workloads.generator.CostBasis``).
INT8_ACCURACY_DROP = 0.005


@dataclass(frozen=True)
class Block:
    """A DNN block ``s^d`` with its experimentally derived costs.

    Blocks with equal ``block_id`` are *the same* block: deploying it
    once serves every path that contains it (memory counted once,
    training paid once).
    """

    block_id: str
    #: the dynamic DNN structure this block belongs to
    dnn_id: str
    #: inference compute time ``c(s)`` in seconds, per request
    compute_time_s: float
    #: memory ``mu(s)`` in GB while deployed
    memory_gb: float
    #: training / fine-tuning cost ``ct(s)`` in device-seconds
    #: (0 for pretrained blocks inherited from the base DNN)
    training_cost_s: float = 0.0
    #: the batch law, measured where ``c(s)`` is: a fused batch of ``n``
    #: samples costs ``c(s) · (1 + (n − 1) · batch_marginal)`` — 0 would be
    #: perfect amortization, 1 serial cost, and a block may measure above 1
    batch_marginal: float = DEFAULT_BATCH_MARGINAL

    def __post_init__(self) -> None:
        inf = float("inf")  # chained comparisons also reject NaN
        if not 0 <= self.compute_time_s < inf:
            raise ValueError("compute_time_s must be finite and >= 0")
        if not 0 <= self.memory_gb < inf:
            raise ValueError("memory_gb must be finite and >= 0")
        if not 0 <= self.training_cost_s < inf:
            raise ValueError("training_cost_s must be finite and >= 0")
        if not 0 <= self.batch_marginal < inf:
            raise ValueError("batch_marginal must be finite and >= 0")


@dataclass(frozen=True)
class Path:
    """A path ``π^d_τ``: the block sequence serving one task.

    ``accuracy`` is the experimentally derived accuracy the path attains
    for its task on full-quality input; the effective accuracy under a
    quality level ``q`` is ``accuracy * q.accuracy_factor``.

    The block sums are computed on first read and kept on the (frozen)
    instance: the solver and the serving queues read them per variant
    and per request.  ``dataclasses.replace`` builds a new instance, so
    a re-blocked path never sees the old sums.
    """

    path_id: str
    dnn_id: str
    task_id: int
    blocks: tuple[Block, ...]
    accuracy: float
    quality: QualityLevel

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a path needs at least one block")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        # Note: a dynamic DNN structure may compose blocks inherited from
        # the shared base DNN with task-specific blocks, so a path's
        # blocks may carry different provenance (``dnn_id``) than the
        # composed structure itself.

    @cached_property
    def compute_time_s(self) -> float:
        """Per-inference processing time ``Σ_{s∈π} c(s)``."""
        return sum(b.compute_time_s for b in self.blocks)

    @cached_property
    def memory_gb(self) -> float:
        """Memory of the path deployed alone, ``Σ_{s∈π} µ(s)``."""
        return sum(b.memory_gb for b in self.blocks)

    @property
    def effective_accuracy(self) -> float:
        """Accuracy after the quality level's semantic compression."""
        return self.accuracy * self.quality.accuracy_factor

    @property
    def bits_per_image(self) -> float:
        """``β(q_τ)`` of the path's quality level."""
        return self.quality.bits_per_image

    def block_ids(self) -> frozenset[str]:
        return frozenset(b.block_id for b in self.blocks)


@dataclass
class Catalog:
    """The DNN repository: candidate paths per task.

    ``paths_by_task[task_id]`` lists every path (over every DNN ``d``)
    that can execute the task — the union of the ``Π^d_τ`` sets.
    """

    paths_by_task: dict[int, tuple[Path, ...]] = field(default_factory=dict)

    def add_path(self, path: Path) -> None:
        existing = self.paths_by_task.get(path.task_id, ())
        if any(p.path_id == path.path_id for p in existing):
            raise ValueError(f"duplicate path_id {path.path_id!r} for task {path.task_id}")
        self.paths_by_task[path.task_id] = existing + (path,)

    def paths_for(self, task: Task | int) -> tuple[Path, ...]:
        task_id = task.task_id if isinstance(task, Task) else task
        return self.paths_by_task.get(task_id, ())

    def all_blocks(self) -> dict[str, Block]:
        """Every distinct block in the catalog, keyed by ``block_id``."""
        blocks: dict[str, Block] = {}
        # replicated workloads map many task ids to the *same* path
        # tuple; scanning it once keeps validation O(distinct paths)
        # instead of O(tasks x paths) at 10^6 tasks
        seen_tuples: set[int] = set()
        for paths in self.paths_by_task.values():
            if id(paths) in seen_tuples:
                continue
            seen_tuples.add(id(paths))
            for path in paths:
                for block in path.blocks:
                    known = blocks.setdefault(block.block_id, block)
                    if known != block:
                        raise ValueError(
                            f"block_id {block.block_id!r} bound to inconsistent costs"
                        )
        return blocks

    def validate(self, tasks: tuple[Task, ...]) -> None:
        """Check every task has candidates and block costs are coherent."""
        self.all_blocks()  # raises on inconsistency
        missing = [t.task_id for t in tasks if not self.paths_for(t)]
        if missing:
            raise ValueError(f"tasks without candidate paths: {missing}")

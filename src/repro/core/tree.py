"""The weighted-tree model of the DOT solution space (Sec. IV-A).

The tree has one layer per task, in descending priority order.  Each
layer is a *clique* of vertices, one per feasible DNN path for that
task, arranged left-to-right by increasing inference compute time.  A
branch (root to leaf) picks one vertex per layer and therefore one path
per task; the memory and training-cost attributes of a branch update
dynamically while traversing, because blocks already deployed by
higher-priority tasks are free for lower-priority ones.

Feasibility filtering during construction removes vertices that violate
the accuracy constraint (1f) or whose inference compute time alone
already exceeds the latency limit (1g); vertices whose minimum RB
demand can never fit the radio capacity are masked per walk, so a
clique does not depend on the budgets.

This is the only tree: :func:`build_vector_tree` builds it (cliques as
row ranges of flat columns, from the one batched :func:`build_cliques`),
and two walks read it — :func:`first_branch`, the heuristic's single
traversal, and :func:`branches`, the memory-pruned enumeration of every
branch.  A walk's output is a :data:`Branch`: one pick per layer, the
index of the chosen variant in its clique.  Only the allocation turns
picks into :class:`~repro.core.subproblem.BranchItem` decisions, and
only as many as its water-fill reads.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.core.catalog import Path
from repro.core.latency import min_latency_rbs
from repro.core.problem import Budgets, DOTProblem
from repro.core.task import QualityLevel, Task
from repro.obs.trace import current_tracer

__all__ = [
    "Branch",
    "BranchState",
    "CliqueColumns",
    "VectorClique",
    "VectorTree",
    "build_cliques",
    "build_vector_tree",
    "first_branch",
    "branches",
]

#: one entry per tree layer (``VectorTree.cliques``), in priority order:
#: the chosen variant's index in its clique, or -1 when no variant fits
Branch = list[int]


@dataclass(frozen=True)
class BranchState:
    """Dynamic attributes accumulated along a branch.

    Immutable: :meth:`extend` returns a new state, which keeps the
    depth-first enumeration (:func:`branches`) trivially correct.
    """

    used_block_ids: frozenset[str] = frozenset()
    memory_gb: float = 0.0
    training_cost_s: float = 0.0

    def extend(self, path: Path) -> "BranchState":
        """State after deploying ``path``'s blocks (new blocks only)."""
        new_memory = self.memory_gb
        new_training = self.training_cost_s
        new_ids = set(self.used_block_ids)
        for block in path.blocks:
            if block.block_id not in new_ids:
                new_ids.add(block.block_id)
                new_memory += block.memory_gb
                new_training += block.training_cost_s
        return BranchState(
            used_block_ids=frozenset(new_ids),
            memory_gb=new_memory,
            training_cost_s=new_training,
        )

    def incremental_memory(self, path: Path) -> float:
        """Memory added by ``path`` beyond already-deployed blocks."""
        return sum(
            b.memory_gb for b in path.blocks if b.block_id not in self.used_block_ids
        )

    def fits(self, path: Path, memory_gb: float) -> bool:
        """Whether deploying ``path`` keeps the branch within ``memory_gb`` (1b)."""
        return self.memory_gb + self.incremental_memory(path) <= memory_gb + 1e-12


def _variant_path(path: Path, quality: QualityLevel) -> Path:
    """The path re-expressed at ``quality`` (verbatim for its own).

    A clique holds one variant per quality level ``q ∈ Q_τ``: the quality
    sets ``β(q)`` and scales the attainable accuracy — picking a lower
    quality is the semantic-compression lever of the formulation.
    """
    if quality == path.quality:
        return path
    return replace(path, path_id=f"{path.path_id}@{quality.name}", quality=quality)


def _variant_path_id(path: Path, quality: QualityLevel) -> str:
    if quality == path.quality:
        return path.path_id
    return f"{path.path_id}@{quality.name}"


#: tasks flattened per batched pass: bounds the Python lists and numpy
#: temporaries a 10⁵-task direct solve holds at once
_CHUNK_TASKS = 2048


class CliqueColumns(NamedTuple):
    """The variant columns of one batch of cliques (:func:`build_cliques`).

    One row per kept variant, cliques back to back in build order: the
    base path's position in its clique's ``source_paths``, the quality's
    position in its task's ``qualities``, the attainable accuracy and the
    latency-driven RB demand.  A :class:`VectorClique` is a row range of
    these columns.
    """

    path_pos: np.ndarray
    quality_pos: np.ndarray
    accuracy: np.ndarray
    min_latency_rbs: np.ndarray


@dataclass(slots=True)
class VectorClique:
    """One task's feasible (path × quality) variants: a row range of columns.

    Variants are stored in clique order — sorted by ``(compute, memory,
    bits, path_id)`` — after the radio-independent (1f)/(1g) feasibility
    filters.  The radio filter ``min_latency_rbs ≤ R`` is applied per
    walk (:meth:`feasible`), which keeps a clique reusable across budget
    changes: a caller's clique memo (:func:`build_vector_tree`) relies on
    that.  The clique's variants are rows ``lo:hi`` of the columns of the
    batch it was built in (:func:`build_cliques`), shared read-only with
    the batch's other cliques and with every replica; blocks and their
    costs are read off ``source_paths``, never copied.  A variant index
    runs over ``range(len(clique))``.
    """

    task: Task
    bits_per_rb: float
    #: the catalog tuple this clique was derived from (identity check
    #: for cache validity)
    source_paths: tuple[Path, ...]
    #: the build batch's columns; this clique's variants are rows lo:hi
    columns: CliqueColumns
    lo: int
    hi: int
    #: variants removed by the (1f)/(1g) filters (radio filter excluded)
    filtered_static: int

    def __len__(self) -> int:
        return self.hi - self.lo

    def base_path(self, index: int) -> Path:
        """The catalog path a variant re-expresses (same blocks)."""
        return self.source_paths[self.columns.path_pos[self.lo + index]]

    def variant_path(self, index: int) -> Path:
        return _variant_path(
            self.base_path(index),
            self.task.qualities[self.columns.quality_pos[self.lo + index]],
        )

    def variant_path_id(self, index: int) -> str:
        return _variant_path_id(
            self.base_path(index),
            self.task.qualities[self.columns.quality_pos[self.lo + index]],
        )

    def min_latency_rbs(self, index: int) -> int:
        """A variant's latency-driven RB demand ``r_min`` (1g)."""
        return int(self.columns.min_latency_rbs[self.lo + index])

    def feasible(self, radio_blocks: int) -> list[int]:
        """Variants whose latency-driven RB demand fits the radio capacity."""
        demands = self.columns.min_latency_rbs[self.lo : self.hi]
        return np.flatnonzero(demands <= radio_blocks).tolist()


def build_cliques(
    tasks: list[Task],
    paths: list[tuple[Path, ...]],
    bits_per_rb: list[float],
) -> list[VectorClique]:
    """The cliques of the specs ``(tasks[k], paths[k], bits_per_rb[k])``.

    The one clique builder: every spec's (path × quality) variants are
    flattened into one set of arrays with a task column, filtered and
    sorted together (:func:`_build_chunk`), ``_CHUNK_TASKS`` specs at a
    time; each chunk's cliques are row ranges of one
    :class:`CliqueColumns`.  A spec is a task, its candidate paths and
    its bits per RB, passed as three parallel lists.  It replicates the
    per-task scalar pipeline exactly (kept as
    ``tests/oracles.py::scalar_cliques``) — same feasibility comparisons,
    the latency RB demand from :func:`repro.core.latency.min_latency_rbs`,
    same sort keys — so a clique is the same whatever batch it was built in.
    """
    cliques: list[VectorClique] = []
    for lo in range(0, len(tasks), _CHUNK_TASKS):
        hi = lo + _CHUNK_TASKS
        cliques.extend(_build_chunk(tasks[lo:hi], paths[lo:hi], bits_per_rb[lo:hi]))
    return cliques


def _build_chunk(
    tasks: list[Task], paths_of: list[tuple[Path, ...]], bits_of: list[float]
) -> list[VectorClique]:
    n_tasks = len(tasks)
    f8, i8 = np.float64, np.int64

    def read(name: str, objects: list) -> np.ndarray:
        return np.fromiter(map(attrgetter(name), objects), f8, len(objects))

    # per (task, path) pair; the sums are cached on the Path objects
    pairs = list(chain.from_iterable(paths_of))
    pair_comp = read("compute_time_s", pairs)
    pair_mem = read("memory_gb", pairs)
    pair_acc = read("accuracy", pairs)
    qualities = list(map(attrgetter("qualities"), tasks))
    levels = list(chain.from_iterable(qualities))
    q_factor = read("accuracy_factor", levels)
    q_bits = read("bits_per_image", levels)
    n_q = np.fromiter(map(len, qualities), i8, n_tasks)
    n_paths = np.fromiter(map(len, paths_of), i8, n_tasks)
    min_acc = read("min_accuracy", tasks)
    max_lat = read("max_latency_s", tasks)
    bits_per_rb = np.array(bits_of, dtype=f8)

    # variant layout: tasks outer, then paths, qualities inner (the
    # enumeration order, which the stable sort below preserves among ties)
    pair_task = np.repeat(np.arange(n_tasks), n_paths)
    pair_nq = n_q[pair_task]
    var_pair = np.repeat(np.arange(pair_task.size), pair_nq)
    var_task = pair_task[var_pair]
    var_q = np.arange(var_pair.size) - np.repeat(np.cumsum(pair_nq) - pair_nq, pair_nq)
    var_quality = (np.cumsum(n_q) - n_q)[var_task] + var_q
    comp = pair_comp[var_pair]
    acc = pair_acc[var_pair] * q_factor[var_quality]

    # (1f) accuracy and (1g) compute-vs-latency, radio-independent
    kept = np.flatnonzero(
        (acc >= (min_acc - 1e-12)[var_task]) & (comp < max_lat[var_task])
    )
    # clique order per task: increasing compute time, ties toward smaller
    # memory, then fewer bits per image (cheaper radio); task ids are
    # exact as floats.  Only variants tying on all three numeric keys
    # fall through to the path-id comparison (determinism)
    pair_k, quality_k = var_pair[kept], var_quality[kept]
    keys = np.array((q_bits[quality_k], pair_mem[pair_k], comp[kept], var_task[kept]))
    order = np.lexsort(keys)
    kept, keys = kept[order], keys[:, order]
    tied = (keys[:, 1:] == keys[:, :-1]).all(axis=0)
    if tied.any():

        def path_id(v: int) -> str:
            quality = qualities[var_task[v]][var_q[v]]
            return _variant_path_id(pairs[var_pair[v]], quality)

        edges = np.diff(np.concatenate(([False], tied, [False])).astype(np.int8))
        for lo, hi in zip(np.flatnonzero(edges > 0), np.flatnonzero(edges < 0) + 1):
            kept[lo:hi] = sorted(kept[lo:hi].tolist(), key=path_id)

    task_k = var_task[kept]
    r_lat = min_latency_rbs(keys[0], bits_per_rb[task_k], max_lat[task_k], keys[2])
    pos_k = var_pair[kept] - (np.cumsum(n_paths) - n_paths)[task_k]

    survivors = np.bincount(task_k, minlength=n_tasks)
    filtered = (np.bincount(var_task, minlength=n_tasks) - survivors).tolist()
    bounds = np.concatenate(([0], np.cumsum(survivors))).tolist()
    columns = CliqueColumns(pos_k, var_q[kept], acc[kept], r_lat)
    return list(
        map(
            VectorClique,
            tasks,
            bits_of,
            paths_of,
            repeat(columns),
            bounds,
            bounds[1:],
            filtered,
        )
    )


@dataclass
class VectorTree:
    """Per-task cliques in priority order, plus construction statistics."""

    problem: DOTProblem
    cliques: list[VectorClique]
    #: wall-clock seconds spent constructing the tree
    build_time_s: float = 0.0
    #: cliques read from the caller's memo instead of being rebuilt
    cached_cliques: int = 0

    def clique_sizes(self) -> list[int]:
        """Vertices per layer under the problem's radio capacity."""
        radio_blocks = self.problem.budgets.radio_blocks
        return [len(clique.feasible(radio_blocks)) for clique in self.cliques]

    @property
    def filtered_out(self) -> dict[int, int]:
        """Variants removed by the (1f)/(1g) and radio filters, per task id."""
        return {
            clique.task.task_id: clique.filtered_static + len(clique) - size
            for clique, size in zip(self.cliques, self.clique_sizes())
        }

    def num_branches(self) -> int:
        """Branches in the complete tree (product of clique sizes)."""
        total = 1
        for size in self.clique_sizes():
            total *= max(size, 1)
        return total

    def tasks_without_options(self) -> list[Task]:
        return [c.task for c, size in zip(self.cliques, self.clique_sizes()) if not size]


def build_vector_tree(
    problem: DOTProblem, memo: dict[int, VectorClique] | None = None
) -> VectorTree:
    """Construct the feasibility-filtered, compute-time-sorted tree.

    Clique contents depend only on the candidate-path tuple, the quality
    set, the accuracy/latency requirements and the per-RB capacity — not
    on a task's identity, priority or rate, nor on the other tasks or the
    edge budgets — so replicated populations (many tasks sharing one
    catalog entry by identity) contribute each distinct clique once to
    the batched build (:func:`build_cliques`) and share its columns
    read-only.  That replica memo lives for this call only.

    What a caller wants carried from one solve to the next it hands in
    as ``memo``, its own ``{task id: clique}`` dict: when the active set
    changes by a few arrivals and departures only the new tasks need
    clique construction.  An entry is used if it was built from the very
    same path tuple (identity), the same bits per RB and an equal task;
    anything else is a miss, built with the other misses and written
    back over it, so the dict stays bounded by the task ids the caller
    keeps in it (departures are the caller's ``memo.pop``).  The tree is
    the same with and without a memo; ``cached_cliques`` counts the hits.
    """
    start = time.perf_counter()
    tracer = current_tracer()
    ordered = problem.tasks_by_priority()
    paths_for, bits_for = problem.catalog.paths_for, problem.radio.bits_per_rb
    # the specs to build, as parallel lists (one entry per distinct clique)
    spec_tasks: list[Task] = []
    spec_paths: list[tuple[Path, ...]] = []
    spec_bits: list[float] = []
    # a replica is found by the identity of its path tuple: the problem
    # keeps the tuples alive, so ids are unique for this call.  Only a
    # tuple shared by tasks that differ in bits per RB, accuracy, latency
    # or quality set needs the full key of its further specs
    by_paths: dict[int, int] = {}
    by_key: dict[tuple, int] = {}
    cliques: list[VectorClique | None] = []
    # the layers to fill from the build, and each one's spec
    miss_layers: list[int] = []
    miss_slots: list[int] = []
    for layer, task in enumerate(ordered):
        paths = paths_for(task)
        bits_per_rb = bits_for(task)
        if memo is not None:
            clique = memo.get(task.task_id)
            if (
                clique is not None
                and clique.source_paths is paths
                and clique.bits_per_rb == bits_per_rb
                and clique.task == task
            ):
                cliques.append(clique)
                continue
        new = len(spec_tasks)
        slot = by_paths.setdefault(id(paths), new)
        if slot != new:
            first = spec_tasks[slot]
            if not (
                spec_bits[slot] == bits_per_rb
                and first.min_accuracy == task.min_accuracy
                and first.max_latency_s == task.max_latency_s
                and first.qualities is task.qualities
            ):
                key = (
                    id(paths),
                    bits_per_rb,
                    task.min_accuracy,
                    task.max_latency_s,
                    id(task.qualities),
                )
                slot = by_key.setdefault(key, new)
        if slot == new:
            spec_tasks.append(task)
            spec_paths.append(paths)
            spec_bits.append(bits_per_rb)
        miss_layers.append(layer)
        miss_slots.append(slot)
        cliques.append(None)
    build_start = time.perf_counter()
    built = build_cliques(spec_tasks, spec_paths, spec_bits)
    if tracer.enabled:
        tracer.record(
            "solver.clique_build",
            build_start,
            time.perf_counter() - build_start,
            cat="solver",
            track="solver",
            args={
                "tasks": len(cliques),
                "built": len(built),
                "variants": sum(map(len, built)),
            },
        )
    for layer, slot in zip(miss_layers, miss_slots):
        clique, task = built[slot], ordered[layer]
        cliques[layer] = clique if clique.task is task else replace(clique, task=task)
    if memo is not None:
        memo.update((ordered[layer].task_id, cliques[layer]) for layer in miss_layers)
    elapsed = time.perf_counter() - start
    if tracer.enabled:
        tracer.record(
            "solver.tree_build",
            start,
            elapsed,
            cat="solver",
            track="solver",
            args={"tasks": len(cliques), "built": len(built)},
        )
    return VectorTree(
        problem=problem,
        cliques=cliques,
        build_time_s=elapsed,
        cached_cliques=len(cliques) - len(miss_layers),
    )


def _clique_heads(cliques: list[VectorClique], radio_blocks: int) -> list[int]:
    """Per clique, its first variant that fits the radio capacity, or -1.

    One array pass per batch of columns the cliques are rows of: the
    radio filter is one comparison over the batch's ``min_latency_rbs``
    column (laid end to end with the other batches'), and each clique's
    head is a ``searchsorted`` of its first row among the survivors.
    """
    if not cliques:
        return []
    columns = list(map(attrgetter("columns"), cliques))
    # each distinct batch once, in first-use order, at its offset in the
    # concatenation
    batches = dict(zip(map(id, columns), columns))
    offsets, demands, end = {}, [], 0
    for key, batch in batches.items():
        offsets[key] = end
        demands.append(batch.min_latency_rbs)
        end += len(batch.min_latency_rbs)
    count = len(cliques)
    base = np.fromiter(map(offsets.__getitem__, map(id, columns)), np.int64, count)
    starts = base + np.fromiter(map(attrgetter("lo"), cliques), np.int64, count)
    ends = base + np.fromiter(map(attrgetter("hi"), cliques), np.int64, count)
    fits = np.flatnonzero(np.concatenate(demands) <= radio_blocks)
    # the first survivor at or after each start; `end` past the last one
    first = np.append(fits, end)[np.searchsorted(fits, starts)]
    return np.where(first < ends, first - starts, -1).tolist()


def first_branch(
    vtree: VectorTree, budgets: Budgets, ordering: str = "compute"
) -> Branch:
    """The leftmost memory-feasible vertex of every layer (Sec. IV-B).

    Per clique: drop radio-infeasible variants and pick the first
    variant under ``ordering`` whose incremental memory — the blocks not
    yet deployed, summed in path order — still fits; -1 marks a task
    with no deployable path (rejected).  Under the paper's
    ``"compute"`` ordering that first candidate is the clique's *head*,
    its first radio-feasible variant, and :func:`_clique_heads` finds
    every layer's head in one array pass; only a head that misses (1b)
    memory sends its clique through the :meth:`~VectorClique.feasible`
    scan.  The ``"memory"`` and ``"accuracy"`` ablations re-rank every
    clique's radio-feasible variants.  A base path whose blocks are all
    deployed is remembered: a later candidate on it skips the block loop
    and compares ``mem_used + 0`` with the limit, as the loop would.
    The walk builds no path and no decision: it returns the pick column
    (:data:`Branch`), the index of each layer's chosen variant or -1.
    Under ``"compute"`` it is the first leaf of :func:`branches`.
    """
    radio_blocks = budgets.radio_blocks
    memory_limit = budgets.memory_gb + 1e-12
    deployed: set[str] = set()
    #: ids of base paths whose blocks are all deployed
    settled: set[int] = set()
    mem_used = 0.0

    def fresh_blocks(path: Path) -> list:
        return [b for b in path.blocks if b.block_id not in deployed]

    def deploys(clique: VectorClique, i: int) -> bool:
        """Deploy variant ``i`` if its increment fits the memory left."""
        nonlocal mem_used
        path = clique.base_path(i)
        if id(path) in settled:
            # the comparison an empty increment gets below
            return not mem_used + 0 > memory_limit
        fresh = fresh_blocks(path)
        if mem_used + sum(b.memory_gb for b in fresh) > memory_limit:
            return False
        # accumulate block by block, the float order of
        # BranchState.extend (a block a path repeats is paid once)
        for block in fresh:
            if block.block_id not in deployed:
                deployed.add(block.block_id)
                mem_used += block.memory_gb
        settled.add(id(path))
        return True

    if ordering == "compute":
        heads = _clique_heads(vtree.cliques, radio_blocks)
    else:
        heads = [None] * len(vtree.cliques)
    chosen: Branch = []
    for clique, head in zip(vtree.cliques, heads):
        if head is None:
            # an ablation ordering: re-rank every radio-feasible variant
            candidates = clique.feasible(radio_blocks)
            if ordering == "memory":
                candidates.sort(
                    key=lambda i: (
                        sum(b.memory_gb for b in fresh_blocks(clique.base_path(i))),
                        clique.variant_path_id(i),
                    )
                )
            elif ordering == "accuracy":
                candidates.sort(
                    key=lambda i: (
                        -clique.columns.accuracy[clique.lo + i],
                        clique.variant_path_id(i),
                    )
                )
            pick = next((i for i in candidates if deploys(clique, i)), -1)
        elif head < 0 or deploys(clique, head):
            pick = head
        else:
            rest = clique.feasible(radio_blocks)[1:]
            pick = next((i for i in rest if deploys(clique, i)), -1)
        chosen.append(pick)
    return chosen


def branches(vtree: VectorTree, budgets: Budgets) -> Iterator[Branch]:
    """Every memory-feasible branch, leftmost first (lexicographic order).

    A depth-first traversal that halts a branch as soon as its
    cumulative memory exceeds ``M`` (the paper's pruning rule).  Cliques
    are visited in their stored compute-time order, so the first leaf is
    exactly :func:`first_branch`'s under the paper's ordering.  A task
    is skipped only when none of its vertices fits, so there is always a
    leaf.  A leaf is a :data:`Branch`, -1 where it skips a layer.
    """
    memory_gb, cliques = budgets.memory_gb, vtree.cliques
    layers = [clique.feasible(budgets.radio_blocks) for clique in cliques]
    prefix: Branch = []

    def descend(layer: int, state: BranchState) -> Iterator[Branch]:
        if layer == len(layers):
            yield list(prefix)
            return
        clique = cliques[layer]
        descended = False
        for pick in layers[layer]:
            path = clique.base_path(pick)
            if not state.fits(path, memory_gb):
                continue  # halt this branch (memory pruning)
            descended = True
            prefix.append(pick)
            yield from descend(layer + 1, state.extend(path))
            prefix.pop()
        # Skip the task when no vertex fits the remaining memory
        # (otherwise the whole subtree would dead-end and lower-priority
        # tasks could never be placed).
        if not descended:
            prefix.append(-1)
            yield from descend(layer + 1, state)
            prefix.pop()

    return descend(0, BranchState())

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
flat arrays, from the one batched :func:`build_cliques`), and two walks
read it — :func:`first_branch`, the heuristic's single traversal, and
:func:`branches`, the memory-pruned enumeration of every branch.  A
vertex taken out of a clique is a :class:`~repro.core.subproblem.BranchItem`.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from repro.core.catalog import Path
from repro.core.problem import Budgets, DOTProblem
from repro.core.subproblem import BranchItem
from repro.core.task import QualityLevel, Task
from repro.obs.trace import current_tracer

__all__ = [
    "Branch",
    "BranchState",
    "VectorClique",
    "VectorTree",
    "build_cliques",
    "build_vector_tree",
    "first_branch",
    "branches",
]

#: one entry per tree layer, in priority order: the task id and its
#: chosen vertex, or ``None`` when no variant of the task fits
Branch = list[tuple[int, BranchItem | None]]


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


@dataclass
class VectorClique:
    """One task's feasible (path × quality) variants as flat arrays.

    Variants are stored in clique order — sorted by ``(compute, memory,
    bits, path_id)`` — after the radio-independent (1f)/(1g) feasibility
    filters.  The radio filter ``min_latency_rbs ≤ R`` is applied per
    walk (:meth:`feasible`), which keeps a clique reusable across budget
    changes: a caller's clique memo (:func:`build_vector_tree`) relies on
    that.  The arrays are views into the batch the clique was built in
    (:func:`build_cliques`) and are shared read-only; blocks and their
    costs are read off ``source_paths``, never copied.
    """

    task: Task
    bits_per_rb: float
    #: the catalog tuple this clique was derived from (identity check
    #: for cache validity)
    source_paths: tuple[Path, ...]
    #: per variant, its base path's position in ``source_paths`` and its
    #: quality's position in ``task.qualities``
    path_pos: np.ndarray
    quality_pos: np.ndarray
    accuracy: np.ndarray
    min_latency_rbs: np.ndarray
    #: variants removed by the (1f)/(1g) filters (radio filter excluded)
    filtered_static: int

    def __len__(self) -> int:
        return len(self.path_pos)

    def base_path(self, index: int) -> Path:
        """The catalog path a variant re-expresses (same blocks)."""
        return self.source_paths[self.path_pos[index]]

    def variant_path(self, index: int) -> Path:
        return _variant_path(
            self.base_path(index), self.task.qualities[self.quality_pos[index]]
        )

    def variant_path_id(self, index: int) -> str:
        return _variant_path_id(
            self.base_path(index), self.task.qualities[self.quality_pos[index]]
        )

    def feasible(self, radio_blocks: int) -> list[int]:
        """Variants whose latency-driven RB demand fits the radio capacity."""
        return np.flatnonzero(self.min_latency_rbs <= radio_blocks).tolist()

    def items(self, radio_blocks: int) -> list[BranchItem]:
        """The :meth:`feasible` variants as decisions, in clique order."""
        return [
            BranchItem(self.task, self.variant_path(i), self.bits_per_rb)
            for i in self.feasible(radio_blocks)
        ]


def build_cliques(
    specs: list[tuple[Task, tuple[Path, ...], float]]
) -> list[VectorClique]:
    """The cliques of ``(task, candidate paths, bits per RB)`` specs.

    The one clique builder: every spec's (path × quality) variants are
    flattened into one set of arrays with a task column, filtered and
    sorted together (:func:`_build_chunk`), ``_CHUNK_TASKS`` specs at a
    time.  It replicates the per-task scalar pipeline exactly (kept as
    ``tests/oracles.py::scalar_cliques``) — same feasibility comparisons,
    same float expressions for the latency RB demand, same sort keys —
    so a clique is the same whatever batch it was built in.
    """
    cliques: list[VectorClique] = []
    for lo in range(0, len(specs), _CHUNK_TASKS):
        cliques.extend(_build_chunk(specs[lo : lo + _CHUNK_TASKS]))
    return cliques


def _build_chunk(
    specs: list[tuple[Task, tuple[Path, ...], float]]
) -> list[VectorClique]:
    n_tasks = len(specs)
    f8, i8 = np.float64, np.int64
    # per (task, path) pair; the sums are cached on the Path objects
    pairs = [path for _, paths, _ in specs for path in paths]
    pair_comp = np.array([path.compute_time_s for path in pairs], dtype=f8)
    pair_mem = np.array([path.memory_gb for path in pairs], dtype=f8)
    pair_acc = np.array([path.accuracy for path in pairs], dtype=f8)
    qualities = [task.qualities for task, _, _ in specs]
    q_factor = np.array([q.accuracy_factor for qs in qualities for q in qs], dtype=f8)
    q_bits = np.array([q.bits_per_image for qs in qualities for q in qs], dtype=f8)
    n_q = np.array(list(map(len, qualities)), dtype=i8)
    n_paths = np.array([len(paths) for _, paths, _ in specs], dtype=i8)
    min_acc = np.array([task.min_accuracy for task, _, _ in specs], dtype=f8)
    max_lat = np.array([task.max_latency_s for task, _, _ in specs], dtype=f8)
    bits_per_rb = np.array([b for _, _, b in specs], dtype=f8)

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
    # slack > 0 is guaranteed by the (1g) filter; replicate the exact
    # float expression of minimum_latency_rbs
    slack = max_lat[task_k] - keys[2]
    r_lat = np.maximum(
        1, np.ceil(keys[0] / (bits_per_rb[task_k] * slack) - 1e-12).astype(i8)
    )
    acc_k, q_k = acc[kept], var_q[kept]
    pos_k = var_pair[kept] - (np.cumsum(n_paths) - n_paths)[task_k]

    survivors = np.bincount(task_k, minlength=n_tasks)
    filtered = (np.bincount(var_task, minlength=n_tasks) - survivors).tolist()
    bounds = np.concatenate(([0], np.cumsum(survivors))).tolist()
    return [
        VectorClique(
            task=task,
            bits_per_rb=task_bits_per_rb,
            source_paths=paths,
            path_pos=pos_k[lo:hi],
            quality_pos=q_k[lo:hi],
            accuracy=acc_k[lo:hi],
            min_latency_rbs=r_lat[lo:hi],
            filtered_static=dropped,
        )
        for (task, paths, task_bits_per_rb), lo, hi, dropped in zip(
            specs, bounds, bounds[1:], filtered
        )
    ]


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

    def num_branches(self, allow_reject: bool = False) -> int:
        """Branches in the complete tree (product of clique sizes)."""
        total = 1
        for size in self.clique_sizes():
            total *= size + 1 if allow_reject else max(size, 1)
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
    the batched build (:func:`build_cliques`) and share its arrays
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
    specs: list[tuple[Task, tuple[Path, ...], float]] = []
    replicas: dict[tuple, int] = {}
    cliques: list[VectorClique | None] = []
    misses: list[tuple[int, Task, int]] = []
    for task in problem.tasks_by_priority():
        paths = problem.catalog.paths_for(task)
        bits_per_rb = problem.radio.bits_per_rb(task)
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
        # identity, not value, of the two tuples: replicas share both, and
        # the problem keeps them alive, so ids are unique for this call
        key = (
            id(paths),
            bits_per_rb,
            task.min_accuracy,
            task.max_latency_s,
            id(task.qualities),
        )
        slot = replicas.setdefault(key, len(specs))
        if slot == len(specs):
            specs.append((task, paths, bits_per_rb))
        misses.append((len(cliques), task, slot))
        cliques.append(None)
    build_start = time.perf_counter()
    built = build_cliques(specs)
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
    for layer, task, slot in misses:
        clique = built[slot]
        cliques[layer] = clique if clique.task is task else replace(clique, task=task)
    if memo is not None:
        memo.update((task.task_id, cliques[layer]) for layer, task, _ in misses)
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
        cached_cliques=len(cliques) - len(misses),
    )


def _clique_heads(cliques: list[VectorClique], radio_blocks: int) -> list[int]:
    """Per clique, its first variant that fits the radio capacity, or -1.

    One array pass over the cliques' ``min_latency_rbs`` arrays: they
    are concatenated, the radio filter is one comparison, and each
    clique's head is a ``searchsorted`` of its start among the
    survivors' positions.
    """
    if not cliques:
        return []
    demands = [clique.min_latency_rbs for clique in cliques]
    sizes = np.fromiter(map(len, demands), np.int64, len(demands))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    fits = np.flatnonzero(np.concatenate(demands) <= radio_blocks)
    # the first survivor at or after each start; ends[-1] past the last one
    first = np.append(fits, ends[-1])[np.searchsorted(fits, starts)]
    return np.where(first < ends, first - starts, -1).tolist()


def first_branch(
    vtree: VectorTree, budgets: Budgets, ordering: str = "compute"
) -> Branch:
    """The leftmost memory-feasible vertex of every layer (Sec. IV-B).

    Per clique: drop radio-infeasible variants and pick the first
    variant under ``ordering`` whose incremental memory — the blocks not
    yet deployed, summed in path order — still fits; ``None`` marks a
    task with no deployable path (rejected).  Under the paper's
    ``"compute"`` ordering that first candidate is the clique's *head*,
    its first radio-feasible variant, and :func:`_clique_heads` finds
    every layer's head in one array pass; only a head that misses (1b)
    memory sends its clique through the :meth:`~VectorClique.feasible`
    scan.  The ``"memory"`` and ``"accuracy"`` ablations re-rank every
    clique's radio-feasible variants.  A base path whose blocks are all
    deployed is remembered: a later candidate on it skips the block loop
    and compares ``mem_used + 0`` with the limit, as the loop would.
    Only the chosen variant's ``Path`` is built, so a 10⁵-task solve
    allocates 10⁵ paths instead of millions of vertices.  It is the
    first leaf of :func:`branches`, without building the other vertices.
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
                    key=lambda i: (-clique.accuracy[i], clique.variant_path_id(i))
                )
            pick = next((i for i in candidates if deploys(clique, i)), -1)
        elif head < 0 or deploys(clique, head):
            pick = head
        else:
            rest = clique.feasible(radio_blocks)[1:]
            pick = next((i for i in rest if deploys(clique, i)), -1)
        item = None
        if pick >= 0:
            item = BranchItem(clique.task, clique.variant_path(pick), clique.bits_per_rb)
        chosen.append((clique.task.task_id, item))
    return chosen


def branches(
    vtree: VectorTree,
    budgets: Budgets,
    ordering: str = "compute",
    allow_reject: bool = False,
) -> Iterator[Branch]:
    """Every memory-feasible branch, leftmost first (lexicographic order).

    A depth-first traversal that halts a branch as soon as its
    cumulative memory exceeds ``M`` (the paper's pruning rule).  Cliques
    are visited under ``ordering``: they are stored compute-time sorted,
    so the paper's ordering is a no-op; the ablation orderings re-rank
    against the current branch state.  The first leaf is exactly
    :func:`first_branch`'s.  ``allow_reject`` adds an explicit "serve no
    path" vertex at the end of every layer; without it a task is skipped
    only when none of its vertices fits, so there is always a leaf.
    """
    layers = [
        (clique.task.task_id, clique.items(budgets.radio_blocks))
        for clique in vtree.cliques
    ]
    prefix: Branch = []

    def ordered(items: list[BranchItem], state: BranchState) -> list[BranchItem]:
        if ordering == "memory":
            return sorted(
                items,
                key=lambda it: (state.incremental_memory(it.path), it.path.path_id),
            )
        if ordering == "accuracy":
            return sorted(
                items, key=lambda it: (-it.path.effective_accuracy, it.path.path_id)
            )
        return items

    def descend(layer: int, state: BranchState) -> Iterator[Branch]:
        if layer == len(layers):
            yield list(prefix)
            return
        task_id, items = layers[layer]
        descended = False
        for item in ordered(items, state):
            if not state.fits(item.path, budgets.memory_gb):
                continue  # halt this branch (memory pruning)
            descended = True
            prefix.append((task_id, item))
            yield from descend(layer + 1, state.extend(item.path))
            prefix.pop()
        # Skip the task when rejection is explicitly explored, or when no
        # vertex fits the remaining memory (otherwise the whole subtree
        # would dead-end and lower-priority tasks could never be placed).
        if allow_reject or not descended:
            prefix.append((task_id, None))
            yield from descend(layer + 1, state)
            prefix.pop()

    return descend(0, BranchState())

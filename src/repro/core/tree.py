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
already exceeds the latency limit (1g) — plus vertices whose minimum RB
demand can never fit the radio capacity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.catalog import Path
from repro.core.problem import DOTProblem
from repro.core.subproblem import minimum_latency_rbs
from repro.core.task import QualityLevel, Task
from repro.obs.trace import current_tracer

__all__ = [
    "Vertex",
    "Clique",
    "BranchState",
    "SolutionTree",
    "build_tree",
    "VectorClique",
    "VectorTree",
    "build_cliques",
    "build_vector_tree",
]


@dataclass(frozen=True)
class Vertex:
    """One feasible (task, path) decision — a tree vertex ``v_j = π^j_τ``.

    Static attributes (accuracy, compute time, bits to transmit) live on
    the path; the dynamic attributes (cumulative memory, training cost)
    belong to :class:`BranchState` since they depend on the traversal.
    """

    task: Task
    path: Path
    bits_per_rb: float

    @property
    def compute_time_s(self) -> float:
        return self.path.compute_time_s

    @property
    def accuracy(self) -> float:
        return self.path.effective_accuracy

    def min_latency_rbs(self) -> int:
        return minimum_latency_rbs(
            self.path.bits_per_image,
            self.bits_per_rb,
            self.task.max_latency_s,
            self.path.compute_time_s,
        )

    def sort_key(self) -> tuple[float, float, float, str]:
        """Clique ordering: increasing inference compute time.

        Ties break toward smaller memory, then fewer bits per image
        (cheaper radio), then path id for determinism.
        """
        return (
            self.path.compute_time_s,
            self.path.memory_gb,
            self.path.bits_per_image,
            self.path.path_id,
        )


@dataclass
class Clique:
    """All feasible vertices of one layer, compute-time sorted."""

    task: Task
    vertices: list[Vertex]

    def __post_init__(self) -> None:
        self.vertices.sort(key=Vertex.sort_key)

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class BranchState:
    """Dynamic attributes accumulated along a branch.

    Immutable: :meth:`extend` returns a new state, which keeps the DFS
    of the optimal solver trivially correct.
    """

    used_block_ids: frozenset[str] = frozenset()
    memory_gb: float = 0.0
    training_cost_s: float = 0.0

    def extend(self, vertex: Vertex) -> "BranchState":
        """State after deploying ``vertex``'s blocks (new blocks only)."""
        new_memory = self.memory_gb
        new_training = self.training_cost_s
        new_ids = set(self.used_block_ids)
        for block in vertex.path.blocks:
            if block.block_id not in new_ids:
                new_ids.add(block.block_id)
                new_memory += block.memory_gb
                new_training += block.training_cost_s
        return BranchState(
            used_block_ids=frozenset(new_ids),
            memory_gb=new_memory,
            training_cost_s=new_training,
        )

    def incremental_memory(self, vertex: Vertex) -> float:
        """Memory added by ``vertex`` beyond already-deployed blocks."""
        return sum(
            b.memory_gb
            for b in vertex.path.blocks
            if b.block_id not in self.used_block_ids
        )


@dataclass
class SolutionTree:
    """Cliques in priority order, plus construction statistics."""

    problem: DOTProblem
    cliques: list[Clique]
    #: vertices removed by the (1f)/(1g) feasibility filter, per task id
    filtered_out: dict[int, int] = field(default_factory=dict)
    #: wall-clock seconds spent constructing the tree (0 if hand-built)
    build_time_s: float = 0.0

    def num_branches(self) -> int:
        """Branches in the complete tree (product of clique sizes)."""
        total = 1
        for clique in self.cliques:
            total *= max(len(clique), 1)
        return total

    def tasks_without_options(self) -> list[Task]:
        return [c.task for c in self.cliques if not c.vertices]


def _vertex_feasible(vertex: Vertex, problem: DOTProblem) -> bool:
    task = vertex.task
    # (1f): accuracy requirement
    if vertex.accuracy < task.min_accuracy - 1e-12:
        return False
    # (1g), compute part: processing alone must leave room for transmission
    if vertex.compute_time_s >= task.max_latency_s:
        return False
    # the latency-driven RB demand must fit the radio capacity at all
    if vertex.min_latency_rbs() > problem.budgets.radio_blocks:
        return False
    return True


def _variant_path(path: Path, quality: QualityLevel) -> Path:
    """The path re-expressed at ``quality`` (verbatim for its own)."""
    if quality == path.quality:
        return path
    return replace(path, path_id=f"{path.path_id}@{quality.name}", quality=quality)


def _variant_path_id(path: Path, quality: QualityLevel) -> str:
    if quality == path.quality:
        return path.path_id
    return f"{path.path_id}@{quality.name}"


def _expand_qualities(path: Path, task: Task) -> list[Path]:
    """One path variant per quality level ``q ∈ Q_τ``.

    The quality sets ``β(q)`` and scales the attainable accuracy —
    picking a lower quality is the semantic-compression lever of the
    formulation.  Tasks with a single quality keep the path verbatim.
    """
    return [_variant_path(path, quality) for quality in task.qualities]


def build_tree(problem: DOTProblem) -> SolutionTree:
    """Construct the feasibility-filtered, compute-time-sorted tree."""
    start = time.perf_counter()
    tracer = current_tracer()
    cliques: list[Clique] = []
    filtered: dict[int, int] = {}
    for task in problem.tasks_by_priority():
        bits_per_rb = problem.radio.bits_per_rb(task)
        vertices = [
            Vertex(task=task, path=variant, bits_per_rb=bits_per_rb)
            for path in problem.catalog.paths_for(task)
            for variant in _expand_qualities(path, task)
        ]
        feasible = [v for v in vertices if _vertex_feasible(v, problem)]
        filtered[task.task_id] = len(vertices) - len(feasible)
        cliques.append(Clique(task=task, vertices=feasible))
    elapsed = time.perf_counter() - start
    if tracer.enabled:
        tracer.record(
            "solver.tree_build",
            start,
            elapsed,
            cat="solver",
            track="solver",
            args={"tasks": len(cliques), "engine": "scalar"},
        )
    return SolutionTree(
        problem=problem,
        cliques=cliques,
        filtered_out=filtered,
        build_time_s=elapsed,
    )


# ---------------------------------------------------------------------------
# Vectorized tree construction (the 10⁴–10⁶-task control plane)
# ---------------------------------------------------------------------------

#: tasks flattened per batched pass: bounds the Python lists and numpy
#: temporaries a 10⁵-task direct solve holds at once
_CHUNK_TASKS = 2048


@dataclass
class VectorClique:
    """One task's feasible (path × quality) variants as flat arrays.

    Variants are stored in the scalar clique order — sorted by
    ``(compute, memory, bits, path_id)`` — after the radio-independent
    (1f)/(1g) feasibility filters.  The radio filter ``min_latency_rbs
    ≤ R`` is applied per solve (a mask over ``min_latency_rbs``), which
    keeps a clique reusable across budget changes: the warm-start cache
    relies on that.  The arrays are views into the batch the clique was
    built in (:func:`build_cliques`) and are shared read-only; blocks
    and their costs are read off ``source_paths``, never copied.
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


def build_cliques(
    specs: list[tuple[Task, tuple[Path, ...], float]]
) -> list[VectorClique]:
    """The cliques of ``(task, candidate paths, bits per RB)`` specs.

    The one clique builder: every spec's (path × quality) variants are
    flattened into one set of arrays with a task column, filtered and
    sorted together (:func:`_build_chunk`), ``_CHUNK_TASKS`` specs at a
    time.  It replicates the scalar pipeline exactly — same feasibility
    comparisons, same float expressions for the latency RB demand, same
    sort keys — so a materialized clique is vertex-for-vertex identical
    to :func:`build_tree`'s, whatever batch it was built in.
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
    # scalar order, which the stable sort below preserves among ties)
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
    # the scalar Vertex.sort_key per task (task ids are exact as floats);
    # only variants tying on all three numeric keys fall through to the
    # path-id comparison
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
    """Per-task vectorized cliques in priority order."""

    problem: DOTProblem
    cliques: list[VectorClique]
    build_time_s: float = 0.0
    #: cliques served from a warm-start cache instead of being rebuilt
    cached_cliques: int = 0

    def materialize(self) -> SolutionTree:
        """The equivalent legacy :class:`SolutionTree` (Vertex objects).

        Applies the radio filter the scalar builder applies inline, so
        clique contents and ``filtered_out`` counts match exactly.
        """
        radio_blocks = self.problem.budgets.radio_blocks
        cliques: list[Clique] = []
        filtered: dict[int, int] = {}
        for vclique in self.cliques:
            mask = vclique.min_latency_rbs <= radio_blocks
            vertices = [
                Vertex(
                    task=vclique.task,
                    path=vclique.variant_path(i),
                    bits_per_rb=vclique.bits_per_rb,
                )
                for i in np.flatnonzero(mask)
            ]
            filtered[vclique.task.task_id] = vclique.filtered_static + int(
                (~mask).sum()
            )
            cliques.append(Clique(task=vclique.task, vertices=vertices))
        return SolutionTree(
            problem=self.problem,
            cliques=cliques,
            filtered_out=filtered,
            build_time_s=self.build_time_s,
        )


def build_vector_tree(problem: DOTProblem) -> VectorTree:
    """Vectorized counterpart of :func:`build_tree`.

    Clique contents depend only on the candidate-path tuple, the quality
    set, the accuracy/latency requirements and the per-RB capacity — not
    on a task's identity, priority or rate — so replicated populations
    (many tasks sharing one catalog entry by identity) contribute each
    distinct clique once to the batched build (:func:`build_cliques`)
    and share its arrays read-only.  The memo lives for this call only:
    nothing is carried from one solve to the next.
    """
    start = time.perf_counter()
    tracer = current_tracer()
    specs: list[tuple[Task, tuple[Path, ...], float]] = []
    memo: dict[tuple, int] = {}
    slots: list[tuple[Task, int]] = []
    for task in problem.tasks_by_priority():
        paths = problem.catalog.paths_for(task)
        bits_per_rb = problem.radio.bits_per_rb(task)
        # identity, not value, of the two tuples: replicas share both, and
        # the problem keeps them alive, so ids are unique for this call
        key = (
            id(paths),
            bits_per_rb,
            task.min_accuracy,
            task.max_latency_s,
            id(task.qualities),
        )
        slot = memo.setdefault(key, len(specs))
        if slot == len(specs):
            specs.append((task, paths, bits_per_rb))
        slots.append((task, slot))
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
                "tasks": len(slots),
                "built": len(built),
                "variants": sum(map(len, built)),
            },
        )
    cliques = [
        built[slot] if built[slot].task is task else replace(built[slot], task=task)
        for task, slot in slots
    ]
    elapsed = time.perf_counter() - start
    if tracer.enabled:
        tracer.record(
            "solver.tree_build",
            start,
            elapsed,
            cat="solver",
            track="solver",
            args={"tasks": len(cliques), "built": len(built), "engine": "vector"},
        )
    return VectorTree(problem=problem, cliques=cliques, build_time_s=elapsed)

"""Catalog generation for the evaluation scenarios.

The paper characterizes the DNN block costs "experimentally ... under
settings similar to those used in Sec. II" and feeds them to the DOT
solvers.  This module provides:

* :class:`CostBasis` — the per-group reference costs.  The default
  values are calibrated from profiling the numpy ResNet-18 substrate and
  scaled to edge-server magnitudes (a full 4-block path costs ~35 ms of
  GPU time and ~1 GB of serving memory; structured pruning at 80%
  reduces block compute by ~5x and memory by ~8x, the arithmetic the
  Sec. II experiments measure);
* :func:`cost_basis_from_profiler` — derives a basis live from
  :func:`repro.dnn.repository.profile_table_i` instead;
* :class:`ScenarioCatalogBuilder` — expands a basis into DOT blocks and
  paths for a task set, with the sharing structure of Table I: shared
  groups map to per-family global blocks, fine-tuned groups to per-task
  blocks, and per-task jitter models task difficulty spread.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.catalog import (
    DEFAULT_BATCH_MARGINAL,
    INT8_ACCURACY_DROP,
    Block,
    Catalog,
    Path,
)
from repro.core.task import QualityLevel, Task
from repro.dnn.configs import TABLE_I_CONFIGS, BlockConfig

__all__ = [
    "GROUP_NAMES",
    "DNNFamily",
    "CostBasis",
    "ScenarioCatalogBuilder",
    "MethodProfile",
    "METHOD_PROFILES",
    "cost_basis_from_profiler",
]

#: 4-block partition of the ResNet stages (matches repro.dnn.repository).
GROUP_NAMES = ("g1", "g2", "g3", "g4")

#: Stages contained in each group (g1 also carries the stem, g4 the head).
GROUP_STAGES: dict[str, tuple[str, ...]] = {
    "g1": ("layer1",),
    "g2": ("layer2",),
    "g3": ("layer3",),
    "g4": ("layer4",),
}


@dataclass(frozen=True)
class MethodProfile:
    """How a CV method reshapes the reference (classification) costs.

    Object detection, for instance, adds a detection head on top of the
    backbone (more compute and memory on the last group) and its
    accuracy lives on the mAP scale, well below top-1 for the same
    backbone (the Fig. 4 example asks for 0.5 mAP where classification
    tasks ask for 0.5-0.9 top-1).
    """

    method: str
    compute_scale: float = 1.0
    memory_scale: float = 1.0
    #: additive shift applied to the configuration accuracy (e.g. the
    #: top-1 -> mAP gap)
    accuracy_offset: float = 0.0
    #: metric name, for reporting ("top-1", "mAP")
    metric: str = "top-1"


#: Built-in method profiles.  The detection entries are declared hand
#: constants (a head adding ~20% compute, an mAP that trails the
#: backbone's top-1); nothing in the repo measures them yet.
METHOD_PROFILES: dict[str, MethodProfile] = {
    "classification": MethodProfile(method="classification"),
    "detection": MethodProfile(
        method="detection",
        compute_scale=1.2,
        memory_scale=1.15,
        accuracy_offset=-0.25,
        metric="mAP",
    ),
}


@dataclass(frozen=True)
class DNNFamily:
    """One base DNN architecture available in the repository ``D``.

    Families scale the reference costs (e.g. a slim ResNet variant) and
    shift the attainable accuracy; blocks are shared within a family
    only (two architectures cannot share weights).
    """

    family_id: str
    compute_scale: float = 1.0
    memory_scale: float = 1.0
    accuracy_offset: float = 0.0


@dataclass(frozen=True)
class CostBasis:
    """Reference costs per 4-block group for the full (unpruned) model."""

    compute_s: dict[str, float] = field(
        default_factory=lambda: {"g1": 0.009, "g2": 0.008, "g3": 0.008, "g4": 0.010}
    )
    memory_gb: dict[str, float] = field(
        default_factory=lambda: {"g1": 0.22, "g2": 0.20, "g3": 0.25, "g4": 0.33}
    )
    #: converged accuracy per configuration (250-epoch fine-tuning,
    #: early-stopped before overfitting; see repro.dnn.training)
    accuracy: dict[str, float] = field(
        default_factory=lambda: {
            "CONFIG A": 0.930,
            "CONFIG B": 0.835,
            "CONFIG C": 0.865,
            "CONFIG D": 0.885,
            "CONFIG E": 0.905,
            "CONFIG A-pruned": 0.850,
            "CONFIG B-pruned": 0.820,
            "CONFIG C-pruned": 0.802,
            "CONFIG D-pruned": 0.810,
            "CONFIG E-pruned": 0.827,
        }
    )
    #: full-configuration training cost in device-seconds
    training_cost_s: dict[str, float] = field(
        default_factory=lambda: {
            "CONFIG A": 40.0,
            "CONFIG B": 4.0,
            "CONFIG C": 15.0,
            "CONFIG D": 22.0,
            "CONFIG E": 30.0,
            "CONFIG A-pruned": 44.0,
            "CONFIG B-pruned": 5.0,
            "CONFIG C-pruned": 17.0,
            "CONFIG D-pruned": 24.0,
            "CONFIG E-pruned": 33.0,
        }
    )
    #: compute of a pruned group relative to the full group (80% pruning)
    pruned_compute_factor: float = 0.2
    #: memory of a pruned group relative to the full group
    pruned_memory_factor: float = 0.12
    #: compute of an int8-quantized group relative to fp32 (measured
    #: ~1.38x geomean speedup of the quantized engine on Table I)
    int8_compute_factor: float = 0.72
    #: memory of an int8 group relative to fp32 (weights 4x smaller,
    #: int8 activation buffers; runtime overhead keeps it above 0.25)
    int8_memory_factor: float = 0.30
    #: top-1 accuracy cost of post-training int8 quantization
    int8_accuracy_drop: float = INT8_ACCURACY_DROP
    #: batch law of every fp32 block and of every int8 one
    #: (:class:`repro.core.catalog.Block`); the profiler measures one each
    batch_marginal: float = DEFAULT_BATCH_MARGINAL
    int8_batch_marginal: float = DEFAULT_BATCH_MARGINAL

    def group_compute(self, group: str, pruned: bool, int8: bool = False) -> float:
        base = self.compute_s[group]
        if pruned:
            base *= self.pruned_compute_factor
        if int8:
            base *= self.int8_compute_factor
        return base

    def group_memory(self, group: str, pruned: bool, int8: bool = False) -> float:
        base = self.memory_gb[group]
        if pruned:
            base *= self.pruned_memory_factor
        if int8:
            base *= self.int8_memory_factor
        return base

    def group_marginal(self, int8: bool = False) -> float:
        return self.int8_batch_marginal if int8 else self.batch_marginal


def cost_basis_from_profiler(
    width: int = 64,
    input_size: int = 32,
    repeats: int = 5,
    compute_scale: float = 1.0,
    memory_scale: float = 20.0,
    seed: int = 0,
    include_int8: bool = False,
) -> CostBasis:
    """Derive a :class:`CostBasis` from live profiling of the substrate.

    ``memory_scale`` maps profiled float32 parameter/activation bytes to
    serving memory (runtime, batching buffers, full-resolution
    activations), keeping the relative block sizes measured.

    ``include_int8=True`` additionally profiles the int8 engine and
    replaces the default int8 compute/memory factors with measured
    ratios (quantized vs fp32 CONFIG A).  The batch law of each precision
    is CONFIG A's, measured the same way.
    """
    from repro.dnn.repository import BLOCK_GROUPS, profile_table_i

    profiled = profile_table_i(
        width=width,
        input_size=input_size,
        repeats=repeats,
        seed=seed,
        include_int8=include_int8,
    )
    full = profiled["CONFIG A"]
    pruned = profiled["CONFIG A-pruned"]
    compute = {}
    memory = {}
    pruned_compute = []
    pruned_memory = []
    for (group_name, _members), g_full, g_pruned in zip(
        BLOCK_GROUPS, full.groups, pruned.groups
    ):
        compute[group_name] = g_full.compute_time_s * compute_scale
        memory[group_name] = g_full.memory_gb * memory_scale
        if g_full.compute_time_s > 0:
            pruned_compute.append(g_pruned.compute_time_s / g_full.compute_time_s)
        if g_full.memory_gb > 0:
            pruned_memory.append(g_pruned.memory_gb / g_full.memory_gb)
    accuracy = {
        name: pc.accuracy
        for name, pc in profiled.items()
        if pc.precision == "fp32"
    }
    training = {
        name: sum(g.training_cost_s for g in pc.groups)
        for name, pc in profiled.items()
        if pc.precision == "fp32"
    }
    basis = CostBasis(
        compute_s=compute,
        memory_gb=memory,
        accuracy=accuracy,
        training_cost_s=training,
        pruned_compute_factor=float(np.mean(pruned_compute)) if pruned_compute else 0.2,
        pruned_memory_factor=float(np.mean(pruned_memory)) if pruned_memory else 0.12,
        batch_marginal=full.batch_marginal,
    )
    if include_int8:
        full_int8 = profiled["CONFIG A-int8"]
        c_ratio = full_int8.total_compute_time_s / full.total_compute_time_s
        m_ratio = full_int8.total_memory_gb / full.total_memory_gb
        from dataclasses import replace

        basis = replace(
            basis,
            int8_compute_factor=float(c_ratio),
            int8_memory_factor=float(m_ratio),
            int8_accuracy_drop=max(
                0.0, full.accuracy - full_int8.accuracy
            ),
            int8_batch_marginal=full_int8.batch_marginal,
        )
    return basis


def _group_state(config: BlockConfig, group: str) -> tuple[bool, bool]:
    """(shared, pruned) status of ``group`` under ``config``."""
    stages = GROUP_STAGES[group]
    shared = (
        not config.from_scratch
        and all(s in config.shared_stages for s in stages)
        and group != "g4"  # the classifier rides with g4 and is never shared
    )
    pruned = config.pruned and all(s in config.prunable_blocks for s in stages)
    return shared, pruned


@dataclass
class ScenarioCatalogBuilder:
    """Expand a cost basis into a DOT catalog for a set of tasks."""

    basis: CostBasis = field(default_factory=CostBasis)
    families: tuple[DNNFamily, ...] = (DNNFamily("rn18"),)
    config_names: tuple[str, ...] = tuple(sorted(TABLE_I_CONFIGS))
    #: relative jitter applied to task-specific block compute times
    compute_jitter: float = 0.05
    #: absolute jitter applied to per-task path accuracy
    accuracy_jitter: float = 0.01
    #: per-CV-method cost/accuracy reshaping (keyed by Task.method);
    #: unknown methods fall back to the classification profile
    method_profiles: dict[str, MethodProfile] = field(
        default_factory=lambda: dict(METHOD_PROFILES)
    )
    #: also emit an int8-quantized variant of every path ("<name>-int8"):
    #: cheaper compute, 4x-ish smaller memory, small accuracy drop, and
    #: a *separate* shared-trunk namespace (int8 blocks only share with
    #: int8 blocks) — quantization as one more solver-visible dimension
    quantized_variants: bool = False
    seed: int = 0

    def _method_profile(self, task: Task) -> MethodProfile:
        return self.method_profiles.get(
            task.method, METHOD_PROFILES["classification"]
        )

    def build(self, tasks: tuple[Task, ...], quality: QualityLevel) -> Catalog:
        """Create the catalog: ``len(config_names)`` paths per family per task."""
        rng = np.random.default_rng(self.seed)
        catalog = Catalog()
        precisions = ("fp32", "int8") if self.quantized_variants else ("fp32",)
        # shared blocks are created once per family (and precision) and
        # reused verbatim
        shared_blocks: dict[tuple[str, str, str], Block] = {}
        for family in self.families:
            for precision in precisions:
                int8 = precision == "int8"
                base = f"{family.family_id}:base" + (":int8" if int8 else "")
                for group in GROUP_NAMES:
                    shared_blocks[(family.family_id, precision, group)] = Block(
                        block_id=f"{base}:{group}",
                        dnn_id=base,
                        compute_time_s=self.basis.group_compute(
                            group, pruned=False, int8=int8
                        )
                        * family.compute_scale,
                        memory_gb=self.basis.group_memory(
                            group, pruned=False, int8=int8
                        )
                        * family.memory_scale,
                        training_cost_s=0.0,
                        batch_marginal=self.basis.group_marginal(int8),
                    )
        for task in tasks:
            for family in self.families:
                for name in self.config_names:
                    config = TABLE_I_CONFIGS[name]
                    for precision in precisions:
                        path = self._build_path(
                            task,
                            family,
                            name,
                            config,
                            quality,
                            shared_blocks,
                            rng,
                            precision,
                        )
                        catalog.add_path(path)
        return catalog

    def _build_path(
        self,
        task: Task,
        family: DNNFamily,
        config_name: str,
        config: BlockConfig,
        quality: QualityLevel,
        shared_blocks: dict[tuple[str, str, str], Block],
        rng: np.random.Generator,
        precision: str = "fp32",
    ) -> Path:
        int8 = precision == "int8"
        variant = f"{config_name}-int8" if int8 else config_name
        dnn_id = f"{family.family_id}:task{task.task_id}:{variant}"
        method = self._method_profile(task)
        blocks: list[Block] = []
        # training happens in fp32 before post-training quantization, so
        # int8 variants pay the same fine-tuning cost
        total_training = self.basis.training_cost_s[config_name]
        # split the configuration's training cost across fine-tuned groups
        fine_groups = [
            g for g in GROUP_NAMES if not _group_state(config, g)[0]
        ]
        per_group_training = total_training / len(fine_groups) if fine_groups else 0.0
        for group in GROUP_NAMES:
            shared, pruned = _group_state(config, group)
            if shared:
                # shared backbone blocks are method agnostic (low-level
                # features transfer across CV methods), so they keep the
                # family cost and stay shareable across methods
                blocks.append(shared_blocks[(family.family_id, precision, group)])
                continue
            jitter = 1.0 + rng.uniform(-self.compute_jitter, self.compute_jitter)
            blocks.append(
                Block(
                    block_id=f"{dnn_id}:{group}",
                    dnn_id=dnn_id,
                    compute_time_s=self.basis.group_compute(group, pruned, int8=int8)
                    * family.compute_scale
                    * method.compute_scale
                    * jitter,
                    memory_gb=self.basis.group_memory(group, pruned, int8=int8)
                    * family.memory_scale
                    * method.memory_scale,
                    training_cost_s=per_group_training,
                    batch_marginal=self.basis.group_marginal(int8),
                )
            )
        accuracy = (
            self.basis.accuracy[config_name]
            + family.accuracy_offset
            + method.accuracy_offset
            + rng.uniform(-self.accuracy_jitter, self.accuracy_jitter)
        )
        if int8:
            accuracy -= self.basis.int8_accuracy_drop
        return Path(
            path_id=f"{dnn_id}",
            dnn_id=dnn_id,
            task_id=task.task_id,
            blocks=tuple(blocks),
            accuracy=float(np.clip(accuracy, 0.0, 1.0)),
            quality=quality,
        )

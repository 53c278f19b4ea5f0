"""From profiled ResNet configurations to the costs of DOT blocks.

The paper characterizes each DNN block experimentally and feeds the
measured costs to the DOT problem.  This module performs that step: it
builds a ResNet-18 per Table I configuration (applying 80% structured
pruning to the fine-tuned blocks of ``-pruned`` variants), profiles it,
evaluates the converged fine-tuning accuracy with the training
simulator, and reports the cost of each of the 4 block groups the
evaluation scenarios use ("each DNN path is composed of four blocks",
Sec. V-A).

Sharing semantics: a shared (frozen, pretrained) group is measured once
on the base model and costs no training; a fine-tuned group is measured
per configuration.  :func:`repro.workloads.generator.cost_basis_from_profiler`
turns these costs into the basis the scenario catalogs are built from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.catalog import INT8_ACCURACY_DROP
from repro.dnn.configs import BlockConfig, TABLE_I_CONFIGS
from repro.dnn.profiler import ModelProfile, profile_model
from repro.dnn.pruning import prune_resnet
from repro.dnn.resnet import ResNet18, build_resnet18
from repro.dnn.training import (
    LearningCurveModel,
    pruned_accuracy_drop,
    training_cost_seconds,
)

__all__ = [
    "BLOCK_GROUPS",
    "GroupCost",
    "ProfiledConfig",
    "profile_table_i",
]

#: The 4-block partition of the ResNet layer-blocks used by the paper's
#: scenarios: stem travels with layer1, the classifier with layer4.
BLOCK_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("g1", ("stem", "layer1")),
    ("g2", ("layer2",)),
    ("g3", ("layer3",)),
    ("g4", ("layer4", "head")),
)

#: Batch sizes (beyond 1) every block is timed at for its batch law.
_LAW_BATCH_SIZES: tuple[int, ...] = (8,)


@dataclass(frozen=True)
class GroupCost:
    """Measured cost of one 4-block group under one configuration."""

    group: str
    compute_time_s: float
    memory_gb: float
    training_cost_s: float
    shared: bool
    #: the group's batch law: its members' marginals weighted by their
    #: compute, so the group is charged what its members would be
    batch_marginal: float


@dataclass(frozen=True)
class ProfiledConfig:
    """One Table I configuration with measured costs and accuracy."""

    config: BlockConfig
    groups: tuple[GroupCost, ...]
    accuracy: float
    #: numeric format of the deployed blocks ("fp32" or "int8") — int8
    #: variants carry int8-sized memory and their own measured c(s)
    precision: str = "fp32"

    @property
    def total_compute_time_s(self) -> float:
        return sum(g.compute_time_s for g in self.groups)

    @property
    def total_memory_gb(self) -> float:
        return sum(g.memory_gb for g in self.groups)

    @property
    def batch_marginal(self) -> float:
        """The whole path's batch law (its groups' fused in sequence)."""
        return _fused_marginal(self.groups)


def _fused_marginal(parts) -> float:
    """One law for ``parts`` run back to back: ``Σ c·m / Σ c``.

    Exact, since each part's law is linear in the batch size.
    """
    return sum(part.compute_time_s * part.batch_marginal for part in parts) / sum(
        part.compute_time_s for part in parts
    )


def _group_shared(config: BlockConfig, members: tuple[str, ...]) -> bool:
    """A group is shared when every prunable/trainable member is frozen."""
    stage_members = [m for m in members if m.startswith("layer")]
    if not stage_members:
        return not config.from_scratch
    if "head" in members:
        return False  # the classifier is always task specific
    return all(m in config.shared_stages for m in stage_members) and not config.from_scratch


def _build_config_model(
    config: BlockConfig,
    num_classes: int,
    input_size: int,
    width: int,
    seed: int,
) -> ResNet18:
    model = build_resnet18(
        num_classes=num_classes, input_size=input_size, width=width, seed=seed
    )
    if config.pruned:
        prune_resnet(model, set(config.prunable_blocks), config.prune_ratio)
    return model


def _profile_config(
    config: BlockConfig,
    num_classes: int,
    input_size: int,
    width: int,
    seed: int,
    fine_tune_epochs: int,
    repeats: int,
    base_profile: ModelProfile,
    quantize: str | None = None,
) -> ProfiledConfig:
    model = _build_config_model(config, num_classes, input_size, width, seed)
    # the pruning accuracy drop is a function of the *full* model's
    # parameter split, so derive it before/independently of pruning
    full_model = build_resnet18(
        num_classes=num_classes, input_size=input_size, width=width, seed=seed
    )
    profile: ModelProfile = profile_model(
        model,
        repeats=repeats,
        quantize=quantize,
        batch_sizes=_LAW_BATCH_SIZES,
    )
    groups: list[GroupCost] = []
    for group_name, members in BLOCK_GROUPS:
        shared = _group_shared(config, members)
        # Shared groups are the *same deployed blocks* across every
        # configuration and task, so their cost must come from a single
        # measurement (the base model); per-config wall-clock noise
        # would otherwise make the catalog inconsistent.
        source = base_profile if shared else profile
        measured = [source.block(m) for m in members]
        compute = sum(block.compute_time_s for block in measured)
        memory = sum(block.memory_bytes for block in measured) / 1e9
        if shared:
            training = 0.0
        else:
            # training cost attributed proportionally to the group's
            # share of trainable parameters
            trainable = set(config.trainable_blocks)
            group_params = sum(
                profile.block(m).params for m in members if m in trainable
            )
            total = sum(b.params for b in profile.blocks if b.name in trainable)
            full_cost = training_cost_seconds(model, config, fine_tune_epochs)
            training = full_cost * (group_params / total) if total else 0.0
        groups.append(
            GroupCost(
                group=group_name,
                compute_time_s=compute,
                memory_gb=memory,
                training_cost_s=training,
                shared=shared,
                batch_marginal=_fused_marginal(measured),
            )
        )
    curve = LearningCurveModel.for_config(config, num_classes=num_classes + 1)
    accuracy = curve.accuracy_at(fine_tune_epochs)
    if config.pruned:
        accuracy = max(0.0, accuracy - pruned_accuracy_drop(config, full_model))
    if quantize == "int8":
        accuracy = max(0.0, accuracy - INT8_ACCURACY_DROP)
    return ProfiledConfig(
        config=config,
        groups=tuple(groups),
        accuracy=accuracy,
        precision=quantize or "fp32",
    )


def profile_table_i(
    num_classes: int = 60,
    input_size: int = 32,
    width: int = 64,
    seed: int = 0,
    fine_tune_epochs: int = 100,
    repeats: int = 3,
    configs: dict[str, BlockConfig] | None = None,
    include_int8: bool = False,
) -> dict[str, ProfiledConfig]:
    """Profile every Table I configuration (the scenario cost basis).

    Every block is timed as the compiled plan the deployment runs
    (:func:`repro.dnn.profiler.profile_model`), at batch 1 for ``c(s)``
    and at ``_LAW_BATCH_SIZES`` for its batch law, per precision.

    ``include_int8=True`` additionally registers an int8-quantized
    variant of every configuration under ``"<name>-int8"`` — same
    architecture, but profiled through the quantized engine, so it
    carries its own measured ``c(s)``, an int8-sized memory footprint
    (4x smaller weights) and the calibrated-quantization accuracy drop.
    The DOT solver then prices quantization exactly like pruning: one
    more point on the cost/accuracy frontier.
    """
    configs = configs or TABLE_I_CONFIGS
    base_model = build_resnet18(
        num_classes=num_classes, input_size=input_size, width=width, seed=seed
    )
    base_profile = profile_model(
        base_model, repeats=repeats, batch_sizes=_LAW_BATCH_SIZES
    )
    profiled = {
        name: _profile_config(
            cfg,
            num_classes,
            input_size,
            width,
            seed,
            fine_tune_epochs,
            repeats,
            base_profile,
        )
        for name, cfg in configs.items()
    }
    if include_int8:
        base_int8 = profile_model(
            base_model, repeats=repeats, quantize="int8", batch_sizes=_LAW_BATCH_SIZES
        )
        for name, cfg in configs.items():
            profiled[f"{name}-int8"] = _profile_config(
                cfg,
                num_classes,
                input_size,
                width,
                seed,
                fine_tune_epochs,
                repeats,
                base_int8,
                quantize="int8",
            )
    return profiled

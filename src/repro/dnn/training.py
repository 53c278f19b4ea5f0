"""Fine-tuning surrogate for the Table I configurations.

The paper's first motivating experiment (Fig. 2) fine-tunes ResNet-18
under CONFIG A..E with batch 256, Adam, cosine-annealing learning rate,
cross-entropy loss, and reports (left) testing accuracy per epoch and
(right) peak GPU memory occupancy.  Training the real network for 250
epochs is a multi-GPU-hour job; the DOT problem, however, only consumes
the *converged accuracy* and the *training cost* of each block
configuration.  No training loop is run here; this module declares:

* :class:`LearningCurveModel` — a documented surrogate mapping a
  :class:`~repro.dnn.configs.BlockConfig` to an accuracy-vs-epoch curve.
  Its parameters are derived from the configuration *structure* (how many
  layer-blocks are shared, whether training starts from scratch), which
  is what produces the published orderings: CONFIG B/C converge fast then
  overfit; D/E converge slower than C; A is slowest but reaches the
  highest accuracy after 250 epochs;
* :class:`TrainingMemoryModel` — peak training memory from parameter /
  gradient / Adam-state / activation bookkeeping, with the frozen blocks
  contributing no gradient or optimizer state (the Fig. 2-right effect);
* :func:`training_cost_seconds` — the ``ct(s)`` DOT input, from forward
  and backward FLOPs of trainable blocks on a reference device;
* :func:`pruned_accuracy_drop` — the accuracy a pruned configuration
  loses (the Fig. 3-right ordering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dnn.configs import STAGE_NAMES, BlockConfig
from repro.dnn.layers import BYTES_PER_PARAM
from repro.dnn.resnet import BLOCK_NAMES, ResNet18

__all__ = [
    "LearningCurveModel",
    "TrainingMemoryModel",
    "training_cost_seconds",
    "pruned_accuracy_drop",
]


# ---------------------------------------------------------------------------
# Surrogate learning curves for the deep configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearningCurveModel:
    """Accuracy-vs-epoch surrogate for a Table I configuration.

    Model: ``acc(e) = floor + (peak - floor) * (1 - exp(-e / tau))``,
    optionally followed by an overfitting decay after ``overfit_epoch``
    toward ``peak - overfit_drop``.  All parameters are derived from the
    configuration structure:

    * ``peak`` decreases with the fraction of *shared* (frozen) blocks —
      frozen general-purpose features cap attainable task accuracy
      (CONFIG B lowest, A highest);
    * ``tau`` (convergence time constant) grows with the fraction of
      *trainable* blocks and is further inflated for from-scratch
      training (CONFIG A slowest; B fastest; C faster than D faster
      than E, the published ordering);
    * only heavily shared configurations (B, C) overfit: their small
      task-specific capacity memorizes the new dataset, the effect the
      paper reports after long training.
    """

    peak: float
    floor: float
    tau: float
    overfit_epoch: int | None
    overfit_drop: float
    noise_std: float = 0.004

    @classmethod
    def for_config(
        cls,
        config: BlockConfig,
        max_accuracy: float = 0.88,
        num_classes: int = 61,
    ) -> "LearningCurveModel":
        shared_fraction = len(config.shared_stages) / len(STAGE_NAMES)
        trainable_fraction = 1.0 - shared_fraction
        if config.from_scratch:
            # full fine-tuning from scratch has the highest capacity and
            # eventually surpasses every shared configuration
            peak = max_accuracy + 0.005
            floor = 1.0 / num_classes
            tau = (4.0 + 56.0 * trainable_fraction**1.2) * 1.5
        else:
            peak = max_accuracy - 0.075 * shared_fraction**1.75
            floor = 0.25  # pretrained features give a warm start
            tau = 4.0 + 56.0 * trainable_fraction**1.2
        overfit_strength = max(0.0, shared_fraction - 0.5)
        if overfit_strength > 0:
            overfit_epoch = int(100 + 100 * (1 - shared_fraction))
            overfit_drop = 0.16 * overfit_strength
        else:
            overfit_epoch = None
            overfit_drop = 0.0
        return cls(
            peak=peak,
            floor=floor,
            tau=tau,
            overfit_epoch=overfit_epoch,
            overfit_drop=overfit_drop,
        )

    def accuracy_at(self, epoch: int) -> float:
        """Noise-free accuracy after ``epoch`` training epochs."""
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        acc = self.floor + (self.peak - self.floor) * (1 - np.exp(-epoch / self.tau))
        if self.overfit_epoch is not None and epoch > self.overfit_epoch:
            # exponential approach to (peak - overfit_drop)
            excess = epoch - self.overfit_epoch
            acc -= self.overfit_drop * (1 - np.exp(-excess / 60.0))
        return float(acc)

    def curve(self, epochs: int, seed: int | None = None) -> np.ndarray:
        """Accuracy after each of ``epochs`` epochs (1-based)."""
        values = np.array([self.accuracy_at(e) for e in range(1, epochs + 1)])
        if seed is not None and self.noise_std > 0:
            rng = np.random.default_rng(seed)
            values = values + rng.normal(0.0, self.noise_std, size=values.shape)
        return np.clip(values, 0.0, 1.0)

    def epochs_to_reach(self, target: float, limit: int = 1000) -> int | None:
        """First epoch at which the noise-free curve reaches ``target``."""
        for epoch in range(1, limit + 1):
            if self.accuracy_at(epoch) >= target:
                return epoch
        return None


# ---------------------------------------------------------------------------
# Peak training memory (Fig. 2 right)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingMemoryModel:
    """Peak device memory during training of a configuration.

    Accounting (all float32):

    * every parameter is resident (frozen or not);
    * trainable parameters additionally hold a gradient and two Adam
      moment buffers (3 extra copies);
    * activations of trainable blocks are retained for backward, scaled
      by the batch size; frozen blocks only need their transient peak
      buffer (no-grad forward);
    * a constant framework overhead (CUDA context, cuDNN workspaces)
      mirrors what any real GPU measurement includes.
    """

    batch_size: int = 256
    framework_overhead_bytes: int = 1_500 * 1024 * 1024
    bytes_per_scalar: int = BYTES_PER_PARAM

    def peak_bytes(self, model: ResNet18, config: BlockConfig) -> int:
        trainable = set(config.trainable_blocks)
        total = self.framework_overhead_bytes
        shape: tuple[int, ...] = model.input_shape
        transient_peak = 0
        for name in BLOCK_NAMES:
            block = model.blocks[name]
            params = block.param_count()
            total += params * self.bytes_per_scalar  # weights always resident
            if name in trainable:
                total += 3 * params * self.bytes_per_scalar  # grad + Adam m, v
                stored = block.total_activations(shape) * self.batch_size
                total += stored * self.bytes_per_scalar
            else:
                transient = block.activation_size(shape) * self.batch_size
                transient_peak = max(transient_peak, transient)
            shape = block.output_shape(shape)
        total += transient_peak * self.bytes_per_scalar
        return total

    def peak_mib(self, model: ResNet18, config: BlockConfig) -> float:
        return self.peak_bytes(model, config) / (1024 * 1024)


# ---------------------------------------------------------------------------
# Training cost and pruning accuracy effects
# ---------------------------------------------------------------------------

#: Sustained training throughput of the reference edge GPU, in FLOP/s.
#: Calibrated so that a full ResNet-18 fine-tune costs on the order of the
#: paper's normalization constant ``Ct = 1000 s``.
REFERENCE_DEVICE_FLOPS = 5.0e12


def training_cost_seconds(
    model: ResNet18,
    config: BlockConfig,
    epochs: int,
    samples_per_epoch: int = 2_000,
    device_flops: float = REFERENCE_DEVICE_FLOPS,
) -> float:
    """Estimated wall-clock training cost (the DOT ``ct`` input).

    Every sample is forwarded through the whole network; backward costs
    roughly twice the forward FLOPs but only for trainable blocks (frozen
    blocks neither store activations nor compute weight gradients — the
    "shared layer-blocks are not using processing resources" effect the
    paper highlights).
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    trainable = set(config.trainable_blocks)
    forward_flops = 0
    backward_flops = 0
    shape: tuple[int, ...] = model.input_shape
    for name in BLOCK_NAMES:
        block = model.blocks[name]
        block_flops = block.flops(shape)
        forward_flops += block_flops
        if name in trainable:
            backward_flops += 2 * block_flops
        shape = block.output_shape(shape)
    total = (forward_flops + backward_flops) * samples_per_epoch * epochs
    return total / device_flops


def pruned_accuracy_drop(
    config: BlockConfig,
    model: ResNet18,
    base_drop: float = 0.015,
    capacity_sensitivity: float = 0.08,
) -> float:
    """Accuracy lost by pruning the fine-tuned blocks at the config ratio.

    ``model`` must be the *unpruned* reference model: the drop grows with
    the fraction of the full network's parameters that get pruned.
    CONFIG B-pruned removes only head-adjacent capacity and loses the
    least, CONFIG A-pruned removes the whole network's worth (the
    Fig. 3-right ordering).
    """
    if not config.pruned:
        return 0.0
    total_params = model.param_count()
    pruned_params = sum(
        model.blocks[name].param_count() for name in config.prunable_blocks
    )
    fraction = pruned_params / total_params if total_params else 0.0
    return base_drop + capacity_sensitivity * fraction * config.prune_ratio

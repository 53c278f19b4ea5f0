#!/usr/bin/env python3
"""DNN shaping demo: the Sec. II motivating experiments on the substrate.

Walks the numpy ResNet-18 through the paper's two motivating studies:

1. fine-tuning cost of the Table I configurations (the declared
   accuracy-curve surrogate + peak training memory, Fig. 2);
2. the inference-time/accuracy trade-off of 80% structured pruning
   (Fig. 3), measured on dummy tensors.

Run:  python examples/pruning_tradeoffs.py
"""

from repro.dnn.configs import TABLE_I_CONFIGS, get_config
from repro.dnn.profiler import profile_model
from repro.dnn.pruning import prune_resnet
from repro.dnn.resnet import build_resnet18
from repro.dnn.training import (
    LearningCurveModel,
    TrainingMemoryModel,
    pruned_accuracy_drop,
)


def study_training() -> None:
    print("=== Experiment 1: training the Table I configurations (Fig. 2) ===")
    model = build_resnet18(num_classes=60, input_size=32, width=64)
    memory = TrainingMemoryModel(batch_size=256)
    print(f"{'config':10s} {'epochs to 80%':>14s} {'acc @250':>9s} {'peak MiB':>9s}")
    for letter in "ABCDE":
        config = get_config(f"CONFIG {letter}")
        curve = LearningCurveModel.for_config(config)
        print(
            f"CONFIG {letter:4s} {str(curve.epochs_to_reach(0.8)):>14s} "
            f"{curve.accuracy_at(250):>9.3f} {memory.peak_mib(model, config):>9.0f}"
        )


def study_pruning() -> None:
    print("\n=== Experiment 2: 80% structured pruning (Fig. 3) ===")
    print(f"{'config':18s} {'params':>10s} {'infer ms':>9s} {'acc @100ep':>10s}")
    for name in sorted(TABLE_I_CONFIGS):
        config = TABLE_I_CONFIGS[name]
        model = build_resnet18(num_classes=60, input_size=32, width=64)
        drop = pruned_accuracy_drop(config, model) if config.pruned else 0.0
        if config.pruned:
            prune_resnet(model, set(config.prunable_blocks), config.prune_ratio)
        profile = profile_model(model, repeats=3)
        accuracy = LearningCurveModel.for_config(config).accuracy_at(100) - drop
        print(
            f"{name:18s} {profile.total_params:>10,d} "
            f"{profile.total_compute_time_s * 1e3:>9.2f} {accuracy:>10.3f}"
        )
    print(
        "\ntakeaway: pruned configurations trade a few accuracy points for "
        "multi-x inference\nspeedups — the menu the DOT problem optimizes over."
    )


if __name__ == "__main__":
    study_training()
    study_pruning()

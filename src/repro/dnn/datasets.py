"""Synthetic datasets reproducing the structure of Table II.

The paper pre-trains ResNet-18 on a 60-class ImageNet subset (Table II)
and fine-tunes on new-task classes ("mushroom" for grocery detection,
"electric guitar" for musical instruments).  ImageNet is not available
offline, so this module provides class-conditional synthetic data with
the same class structure and *controllable separability*, which is what
the Fig. 2 / Fig. 3 experiments actually exercise (accuracy orderings
across training configurations, not absolute ImageNet numbers).

:class:`FeatureDataset` holds Gaussian class clusters in the ResNet
feature space (512-d), used to train the classifier head with real
numpy SGD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClassGroup",
    "TABLE_II_GROUPS",
    "BASE_NUM_CLASSES",
    "NEW_TASK_CLASSES",
    "FeatureDataset",
    "make_feature_dataset",
]


@dataclass(frozen=True)
class ClassGroup:
    """One row of Table II."""

    name: str
    description: str
    num_classes: int
    example: str


#: The base dataset description (Table II): 60 categories in 5 groups.
TABLE_II_GROUPS: tuple[ClassGroup, ...] = (
    ClassGroup("Vehicle", "12 vehicle categories", 12, "Bus"),
    ClassGroup("Wild animals", "18 wild animal categories", 18, "koala"),
    ClassGroup("Snakes", "10 snake categories", 10, "green snake"),
    ClassGroup("Cats", "6 cat categories", 6, "Persian cat"),
    ClassGroup("Household Objects", "14 household objects", 14, "toaster"),
)

BASE_NUM_CLASSES = sum(g.num_classes for g in TABLE_II_GROUPS)

#: New-task classes used by the paper's motivating experiments.
NEW_TASK_CLASSES = ("mushroom", "electric guitar")


@dataclass(frozen=True)
class FeatureDataset:
    """Class-conditional Gaussian clusters in feature space.

    ``features`` has shape (N, F); ``labels`` (N,) integer classes.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    prototypes: np.ndarray  # (K, F) class means

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")

    def split(self, train_fraction: float, seed: int = 0) -> tuple["FeatureDataset", "FeatureDataset"]:
        """Shuffle and split into (train, test)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.labels))
        cut = int(round(train_fraction * len(order)))
        train_idx, test_idx = order[:cut], order[cut:]

        def subset(idx: np.ndarray) -> FeatureDataset:
            return FeatureDataset(
                features=self.features[idx],
                labels=self.labels[idx],
                num_classes=self.num_classes,
                prototypes=self.prototypes,
            )

        return subset(train_idx), subset(test_idx)


def make_feature_dataset(
    num_classes: int = BASE_NUM_CLASSES,
    samples_per_class: int = 40,
    feature_dim: int = 512,
    separability: float = 2.5,
    seed: int = 0,
) -> FeatureDataset:
    """Generate Gaussian class clusters.

    ``separability`` is the ratio of inter-class prototype distance to
    the within-class standard deviation; higher values make the task
    easier.  The asymptotically reachable accuracy of a linear classifier
    grows monotonically with it, which lets tests and benchmarks dial in
    target accuracy regimes.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if separability <= 0:
        raise ValueError("separability must be positive")
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(0.0, 1.0, (num_classes, feature_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    prototypes *= separability
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    noise = rng.normal(0.0, 1.0, (len(labels), feature_dim))
    features = prototypes[labels] + noise
    return FeatureDataset(
        features=features.astype(np.float32),
        labels=labels.astype(np.int64),
        num_classes=num_classes,
        prototypes=prototypes.astype(np.float32),
    )


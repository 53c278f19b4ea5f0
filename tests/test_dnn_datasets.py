"""Unit tests for the synthetic Table II datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dnn.datasets import (
    BASE_NUM_CLASSES,
    NEW_TASK_CLASSES,
    TABLE_II_GROUPS,
    make_feature_dataset,
)


class TestTableII:
    def test_sixty_total_categories(self):
        assert BASE_NUM_CLASSES == 60

    def test_group_counts_match_paper(self):
        counts = {g.name: g.num_classes for g in TABLE_II_GROUPS}
        assert counts == {
            "Vehicle": 12,
            "Wild animals": 18,
            "Snakes": 10,
            "Cats": 6,
            "Household Objects": 14,
        }

    def test_examples_present(self):
        examples = {g.example for g in TABLE_II_GROUPS}
        assert {"Bus", "koala", "green snake", "Persian cat", "toaster"} == examples

    def test_new_task_classes(self):
        assert "mushroom" in NEW_TASK_CLASSES
        assert "electric guitar" in NEW_TASK_CLASSES


class TestFeatureDataset:
    def test_shapes(self):
        data = make_feature_dataset(num_classes=6, samples_per_class=10, feature_dim=32)
        assert data.features.shape == (60, 32)
        assert data.labels.shape == (60,)
        assert data.prototypes.shape == (6, 32)

    def test_all_classes_present(self):
        data = make_feature_dataset(num_classes=6, samples_per_class=10)
        assert set(np.unique(data.labels)) == set(range(6))

    def test_separability_controls_margin(self):
        tight = make_feature_dataset(num_classes=4, separability=0.5, seed=0)
        wide = make_feature_dataset(num_classes=4, separability=5.0, seed=0)
        assert np.linalg.norm(wide.prototypes[0]) > np.linalg.norm(tight.prototypes[0])

    def test_split_partitions_samples(self):
        data = make_feature_dataset(num_classes=4, samples_per_class=25)
        train, test = data.split(0.8, seed=0)
        assert len(train.labels) == 80
        assert len(test.labels) == 20

    def test_split_invalid_fraction(self):
        data = make_feature_dataset(num_classes=2, samples_per_class=5)
        with pytest.raises(ValueError):
            data.split(1.0)

    def test_deterministic_given_seed(self):
        a = make_feature_dataset(seed=9, num_classes=3, samples_per_class=4)
        b = make_feature_dataset(seed=9, num_classes=3, samples_per_class=4)
        np.testing.assert_array_equal(a.features, b.features)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            make_feature_dataset(num_classes=1)
        with pytest.raises(ValueError):
            make_feature_dataset(separability=0.0)

    def test_mismatched_lengths_raise(self):
        from repro.dnn.datasets import FeatureDataset

        with pytest.raises(ValueError):
            FeatureDataset(
                features=np.zeros((3, 2)),
                labels=np.zeros(4, dtype=np.int64),
                num_classes=2,
                prototypes=np.zeros((2, 2)),
            )


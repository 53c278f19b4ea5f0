"""Unit tests for the fine-tuning simulator (Fig. 2 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dnn.configs import TABLE_I_CONFIGS, get_config
from repro.dnn.resnet import build_resnet18
from repro.dnn.training import (
    LearningCurveModel,
    TrainingMemoryModel,
    pruned_accuracy_drop,
    training_cost_seconds,
)


@pytest.fixture(scope="module")
def model():
    return build_resnet18(num_classes=20, input_size=16, width=8)


class TestLearningCurveModel:
    def test_config_a_slowest_to_80pct(self):
        """CONFIG A takes >200 epochs to reach 80%; B and C converge fast
        (the Fig. 2-left orderings)."""
        epochs = {
            name: LearningCurveModel.for_config(get_config(name)).epochs_to_reach(0.8)
            for name in ("CONFIG A", "CONFIG B", "CONFIG C", "CONFIG D", "CONFIG E")
        }
        assert epochs["CONFIG A"] > 200
        assert epochs["CONFIG B"] < epochs["CONFIG C"] < epochs["CONFIG D"] < epochs["CONFIG E"]

    def test_config_a_highest_final_accuracy(self):
        """With enough epochs CONFIG A beats every shared configuration."""
        final = {
            name: LearningCurveModel.for_config(get_config(name)).accuracy_at(500)
            for name in ("CONFIG A", "CONFIG B", "CONFIG C", "CONFIG D", "CONFIG E")
        }
        assert final["CONFIG A"] == max(final.values())

    def test_config_a_beats_overfit_configs_at_300(self):
        """The paper's statement: after >250 epochs A achieves better
        accuracy than the overfitting shared configurations B and C."""
        acc = {
            name: LearningCurveModel.for_config(get_config(name)).accuracy_at(300)
            for name in ("CONFIG A", "CONFIG B", "CONFIG C")
        }
        assert acc["CONFIG A"] > acc["CONFIG B"]
        assert acc["CONFIG A"] > acc["CONFIG C"]

    def test_b_and_c_overfit(self):
        """B and C peak then decay with long training (overfitting)."""
        for name in ("CONFIG B", "CONFIG C"):
            curve = LearningCurveModel.for_config(get_config(name))
            peak_epoch = curve.overfit_epoch
            assert peak_epoch is not None
            assert curve.accuracy_at(400) < curve.accuracy_at(peak_epoch)

    def test_d_and_e_do_not_overfit(self):
        for name in ("CONFIG D", "CONFIG E"):
            curve = LearningCurveModel.for_config(get_config(name))
            assert curve.overfit_epoch is None

    def test_curve_monotone_before_overfit(self):
        curve = LearningCurveModel.for_config(get_config("CONFIG C"))
        values = [curve.accuracy_at(e) for e in range(0, curve.overfit_epoch, 10)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_curve_bounded(self):
        curve = LearningCurveModel.for_config(get_config("CONFIG A"))
        values = curve.curve(300, seed=0)
        assert (values >= 0).all() and (values <= 1).all()

    def test_curve_noise_reproducible(self):
        curve = LearningCurveModel.for_config(get_config("CONFIG D"))
        np.testing.assert_array_equal(curve.curve(50, seed=3), curve.curve(50, seed=3))

    def test_negative_epoch_raises(self):
        curve = LearningCurveModel.for_config(get_config("CONFIG A"))
        with pytest.raises(ValueError):
            curve.accuracy_at(-1)


class TestTrainingMemoryModel:
    def test_config_a_uses_most_memory(self, model):
        mem = TrainingMemoryModel(batch_size=256)
        peaks = {
            name: mem.peak_mib(model, get_config(name))
            for name in ("CONFIG A", "CONFIG B", "CONFIG C", "CONFIG D", "CONFIG E")
        }
        assert peaks["CONFIG A"] == max(peaks.values())
        assert peaks["CONFIG B"] == min(peaks.values())

    def test_memory_ordering_by_shared_depth(self, model):
        """More shared (frozen) blocks -> less training memory."""
        mem = TrainingMemoryModel(batch_size=256)
        b = mem.peak_mib(model, get_config("CONFIG B"))
        c = mem.peak_mib(model, get_config("CONFIG C"))
        d = mem.peak_mib(model, get_config("CONFIG D"))
        e = mem.peak_mib(model, get_config("CONFIG E"))
        assert b < c < d < e

    def test_batch_size_scales_activation_term(self, model):
        small = TrainingMemoryModel(batch_size=32, framework_overhead_bytes=0)
        large = TrainingMemoryModel(batch_size=256, framework_overhead_bytes=0)
        config = get_config("CONFIG A")
        assert large.peak_bytes(model, config) > small.peak_bytes(model, config)


class TestTrainingCost:
    def test_scales_with_epochs(self, model):
        config = get_config("CONFIG C")
        assert training_cost_seconds(model, config, 100) == pytest.approx(
            2 * training_cost_seconds(model, config, 50)
        )

    def test_zero_epochs_zero_cost(self, model):
        assert training_cost_seconds(model, get_config("CONFIG A"), 0) == 0.0

    def test_fully_trainable_costs_most(self, model):
        costs = {
            name: training_cost_seconds(model, get_config(name), 100)
            for name in ("CONFIG A", "CONFIG B", "CONFIG C")
        }
        assert costs["CONFIG A"] > costs["CONFIG C"] > costs["CONFIG B"]

    def test_negative_epochs_raise(self, model):
        with pytest.raises(ValueError):
            training_cost_seconds(model, get_config("CONFIG A"), -1)


class TestPrunedAccuracyDrop:
    def test_unpruned_config_no_drop(self, model):
        assert pruned_accuracy_drop(get_config("CONFIG C"), model) == 0.0

    def test_config_b_pruned_smallest_drop(self, model):
        """B-pruned inherits most blocks -> least accuracy lost
        (the Fig. 3-right effect)."""
        drops = {
            name: pruned_accuracy_drop(TABLE_I_CONFIGS[name], model)
            for name in TABLE_I_CONFIGS
            if name.endswith("-pruned")
        }
        assert drops["CONFIG B-pruned"] == min(drops.values())
        assert drops["CONFIG A-pruned"] == max(drops.values())

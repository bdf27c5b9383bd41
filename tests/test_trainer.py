"""Loss, Adam, and the training loop."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qhead.baselines import LogisticModel, MlpConfig, MlpHead
from qhead.datasets import make_count_splits, synthetic_clusters
from qhead.errors import ConfigurationError
from qhead.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    count_model_parameters,
    evaluate,
    load_parameters,
    softmax_cross_entropy_batch,
    train,
)


class TestCrossEntropy:
    def test_uniform_two_class(self):
        (loss,), _ = softmax_cross_entropy_batch(np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_correct(self):
        (loss,), _ = softmax_cross_entropy_batch(np.array([[10.0, -10.0]]), np.array([0]))
        assert loss == pytest.approx(2.061e-9, rel=1e-3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            logits = rng.standard_normal(4)
            label = np.array([rng.integers(4)])
            _, (grad,) = softmax_cross_entropy_batch(logits[None], label)
            h = 1e-6
            for j in range(4):
                lp, lm = logits.copy(), logits.copy()
                lp[j] += h
                lm[j] -= h
                fd = (softmax_cross_entropy_batch(lp[None], label)[0][0]
                      - softmax_cross_entropy_batch(lm[None], label)[0][0]) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-8)

    def test_label_out_of_range(self):
        with pytest.raises(ConfigurationError):
            softmax_cross_entropy_batch(np.array([[0.0, 0.0]]), np.array([2]))
        with pytest.raises(ConfigurationError, match=r"\(2,\) labels for logits of shape \(1, 2\)"):
            softmax_cross_entropy_batch(np.array([[0.0, 0.0]]), np.array([0, 1]))

    @pytest.mark.parametrize("label", [-1, 3])
    def test_batch_label_out_of_range(self, label):
        with pytest.raises(ConfigurationError, match=f"label {label}"):
            softmax_cross_entropy_batch(np.zeros((2, 3)), np.array([0, label]))

    def test_extreme_logits_stable(self):
        (loss,), (grad,) = softmax_cross_entropy_batch(np.array([[1000.0, -1000.0]]),
                                                       np.array([1]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss == pytest.approx(2000.0, rel=1e-9)


class TestAdam:
    def test_zero_gradient_no_motion(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState()
        adam_step(params, grads, state, TrainConfig(learning_rate=0.1), epoch=0)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_unit_decay_keeps_rate_constant(self):
        cfg = TrainConfig(learning_rate=0.05, lr_decay=1.0)
        # two fresh problems at different epochs step identically
        steps = []
        for epoch in (0, 7):
            params = {"w": np.array([1.0])}
            adam_step(params, {"w": np.array([1.0])}, AdamState(), cfg, epoch)
            steps.append(1.0 - params["w"][0])
        assert steps[0] == pytest.approx(steps[1], abs=1e-15)

    def test_decay_shrinks_rate(self):
        cfg = TrainConfig(learning_rate=0.05, lr_decay=0.5)
        steps = []
        for epoch in (0, 2):
            params = {"w": np.array([1.0])}
            adam_step(params, {"w": np.array([1.0])}, AdamState(), cfg, epoch)
            steps.append(1.0 - params["w"][0])
        assert steps[1] == pytest.approx(steps[0] / 4, rel=1e-10)

    def test_quadratic_convergence(self):
        params = {"w": np.array([1.0])}
        state = AdamState()
        cfg = TrainConfig(learning_rate=0.01)
        for _ in range(500):
            adam_step(params, {"w": 2 * params["w"]}, state, cfg, epoch=0)
        assert abs(params["w"][0]) < 1e-3

    def test_weight_decay_is_multiplicative(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        params = {"w": np.array([2.0])}
        adam_step(params, {"w": np.zeros(1)}, AdamState(), cfg, epoch=0)
        # zero gradient: only the decay factor (1 - lr*rho) acts
        assert params["w"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=1e-12)


def _split_clusters(separation, seed=0, n_per_class=80, dim=12):
    ds = synthetic_clusters(dim=dim, n_per_class=n_per_class, separation=separation, seed=seed)
    return make_count_splits(ds, train_per_class=40, val_per_class=15, seed=seed)


class TestTrainLoop:
    def test_logistic_separates_clusters(self):
        ds = _split_clusters(separation=10.0)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=50, seed=1)
        report, _ = train(LogisticModel(ds.dim), ds, cfg)
        assert report.test_accuracy >= 0.99
        assert report.parameter_count == ds.dim + 1

    def test_determinism(self):
        ds = _split_clusters(separation=3.0, seed=5)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=10, seed=9)
        a, _ = train(LogisticModel(ds.dim), ds, cfg)
        b, _ = train(LogisticModel(ds.dim), ds, cfg)
        assert a == b

    def test_loss_non_increasing_early(self):
        ds = _split_clusters(separation=10.0, seed=2)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=10, seed=3)
        report, _ = train(LogisticModel(ds.dim), ds, cfg)
        diffs = np.diff(report.epoch_loss)
        assert np.all(diffs <= 1e-9)

    def test_best_checkpoint_from_validation_only(self):
        # trace which evaluations can influence selection: the recorded best
        # epoch must be the argmax of the validation curve (latest on ties)
        ds = _split_clusters(separation=1.0, seed=7)
        cfg = TrainConfig(learning_rate=0.02, batch_size=8, epochs=15, seed=11)
        report, _ = train(LogisticModel(ds.dim), ds, cfg)
        val = np.asarray(report.val_accuracy)
        assert report.best_epoch == len(val) - 1 - int(np.argmax(val[::-1]))
        assert report.best_val_accuracy == val.max()

    def test_latest_of_tied_best_epochs_is_kept(self):
        # validation accuracy is 1.0 at every epoch: the last epoch's
        # parameters, trained longest, are the ones reported
        ds = make_count_splits(synthetic_clusters(dim=8, n_per_class=40, separation=8.0, seed=2),
                               20, 8, seed=1)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=6, seed=1)
        report, _ = train(LogisticModel(8), ds, cfg)
        assert report.val_accuracy == [1.0] * 6
        assert report.best_epoch == 5

    def test_restores_best_parameters_for_test_eval(self):
        ds = _split_clusters(separation=2.0, seed=8)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=12, seed=13)
        model = LogisticModel(ds.dim)
        report, best = train(model, ds, cfg)
        for key, arr in model.parameter_arrays().items():
            np.testing.assert_array_equal(arr, best[key])
        assert report.test_accuracy == evaluate(model, ds, "test")

    def test_restores_best_batch_norm_statistics_for_test_eval(self):
        # the best epoch is 5 of 12: the running statistics of the last
        # epoch moved the test logits by up to 0.80
        ds = make_count_splits(synthetic_clusters(dim=8, n_per_class=40, separation=1.5, seed=3),
                               20, 8, seed=1)
        X_test, _ = ds.split_arrays("test")

        def trained(epochs):
            model = MlpHead(8, 2, MlpConfig(1, 8, True), rng=np.random.default_rng(1))
            cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=epochs, seed=1)
            report, _ = train(model, ds, cfg)
            return report, model.predict_logits(X_test)

        report, logits = trained(12)
        assert report.best_epoch < 11
        stopped, at_best = trained(report.best_epoch + 1)
        assert stopped.best_epoch == report.best_epoch
        np.testing.assert_array_equal(logits, at_best)

    def test_empty_split_rejected(self):
        ds = synthetic_clusters(dim=4, n_per_class=10, separation=1.0, seed=0)
        model = LogisticModel(4)
        with pytest.raises(ConfigurationError):
            train(model, ds, TrainConfig(epochs=1))

    def test_zero_iteration_model_is_chance(self):
        ds = _split_clusters(separation=10.0, seed=4)
        model = LogisticModel(ds.dim)
        assert evaluate(model, ds, "test") == pytest.approx(0.5, abs=0.01)

    def test_accuracy_invariant_to_sample_order(self):
        ds = _split_clusters(separation=2.0, seed=12)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=5, seed=1)
        model = LogisticModel(ds.dim)
        train(model, ds, cfg)
        X, y = ds.split_arrays("test")
        perm = np.random.default_rng(0).permutation(len(y))
        acc = float(np.mean(np.argmax(model.predict_logits(X), axis=1) == y))
        acc_perm = float(np.mean(np.argmax(model.predict_logits(X[perm]), axis=1) == y[perm]))
        assert acc == acc_perm

    def test_count_model_parameters(self):
        model = LogisticModel(768)
        assert count_model_parameters(model) == 769


@pytest.mark.parametrize("field, value", [
    ("learning_rate", math.nan),
    ("learning_rate", math.inf),
    ("learning_rate", 0.0),
    ("learning_rate", -1e-3),
    ("weight_decay", math.nan),
    ("weight_decay", math.inf),
    ("weight_decay", -1.0),
    ("batch_size", 0),
    ("epochs", 0),
    ("lr_decay", 0.0),
])
def test_train_config_rejects_non_finite_and_out_of_range_rates(field, value):
    with pytest.raises(ConfigurationError, match=field):
        TrainConfig(**{field: value})


def test_load_parameters_copies_in_place_and_rejects_mismatches():
    model = LogisticModel(3)
    weights = model.weights
    load_parameters(model, {"weights": np.array([1.0, 2.0, 3.0]), "bias": np.array([0.5])})
    assert model.weights is weights
    np.testing.assert_array_equal(model.weights, [1.0, 2.0, 3.0])
    with pytest.raises(ConfigurationError, match="do not match"):
        load_parameters(model, {"weights": np.zeros(3)})
    with pytest.raises(ConfigurationError, match="'weights' has shape"):
        load_parameters(model, {"weights": np.zeros(4), "bias": np.zeros(1)})

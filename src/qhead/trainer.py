"""Optimization loop: cross-entropy, Adam with decays, batching, model selection.

Models are duck-typed; anything with ``parameter_arrays()``,
``batch_loss_and_gradients(X, y, noise, seed_path)`` and
``predict_logits(X, noise, seed_path)`` can be trained; ``statistic_arrays()``
names any arrays it updates outside the optimizer (batch-norm statistics).
All shuffling derives from the train seed, all noise randomness from the
noise model's own seed, so a (seed, config, dataset) triple fully determines
every reported number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .errors import ConfigurationError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    lr_decay: float = 1.0
    weight_decay: float = 0.0
    batch_size: int = 16
    epochs: int = 800
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigurationError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigurationError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigurationError(
                f"weight_decay must be >= 0 and finite, got {self.weight_decay}"
            )


@dataclass
class TrainReport:
    epoch_loss: list[float]
    val_accuracy: list[float]
    best_epoch: int
    best_val_accuracy: float
    test_accuracy: float
    parameter_count: int


def softmax_cross_entropy_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cross-entropy losses and gradients for (B, k) logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:1]:
        raise ConfigurationError(f"{labels.shape} labels for logits of shape {logits.shape}")
    bad = (labels < 0) | (labels >= logits.shape[1])
    if bad.any():
        raise ConfigurationError(
            f"label {labels[bad][0]} out of range for {logits.shape[1]} classes"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    probs = exp / total[:, None]
    rows = np.arange(len(labels))
    losses = -(shifted[rows, labels] - np.log(total))
    grads = probs
    grads[rows, labels] -= 1.0
    return losses, grads


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig, epoch: int) -> None:
    """One Adam update in place, rate L * gamma^epoch, decoupled weight decay."""
    lr = config.learning_rate * config.lr_decay**epoch
    state.t += 1
    t = state.t
    for key, p in params.items():
        g = grads[key]
        if key not in state.m:
            state.m[key] = np.zeros_like(p)
            state.v[key] = np.zeros_like(p)
        m = state.m[key]
        v = state.v[key]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        if config.weight_decay:
            p *= 1.0 - lr * config.weight_decay
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def evaluate(model, dataset, split: str, noise=None, seed_path: tuple[int, ...] = ()) -> float:
    """Fraction of argmax-correct predictions on one split."""
    X, y = dataset.split_arrays(split)
    if len(y) == 0:
        raise ConfigurationError(f"split {split!r} is empty")
    logits = model.predict_logits(X, noise=noise, seed_path=seed_path)
    return float(np.mean(np.argmax(logits, axis=1) == y))


def train(model, dataset, config: TrainConfig, noise=None, on_epoch=None):
    """Mini-batch training with per-epoch validation and best-checkpoint selection.

    Returns (TrainReport, best_parameter_arrays). The best checkpoint is the
    highest validation accuracy, latest epoch on ties; the final test
    accuracy is evaluated with that checkpoint and its statistics restored
    and the same noise settings used in training. ``on_epoch(epoch, loss,
    val_accuracy)``, when given, is called as each epoch finishes.
    """
    for split in ("train", "val", "test"):
        if len(dataset.split_indices(split)) == 0:
            raise ConfigurationError(f"dataset split {split!r} is empty")
    X_train, y_train = dataset.split_arrays("train")
    params = model.parameter_arrays()
    statistics = model.statistic_arrays if hasattr(model, "statistic_arrays") else dict
    state = AdamState()

    epoch_losses: list[float] = []
    val_accs: list[float] = []
    best_epoch = -1
    best_val = -1.0

    n = len(y_train)
    for epoch in range(config.epochs):
        order = seeding.stream(config.seed, seeding.SHUFFLE, epoch).permutation(n)
        total = 0.0
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            loss, grads = model.batch_loss_and_gradients(
                X_train[idx], y_train[idx], noise=noise, seed_path=(epoch, b)
            )
            adam_step(params, grads, state, config, epoch)
            total += loss * len(idx)
        epoch_losses.append(total / n)
        val_acc = evaluate(model, dataset, "val", noise, seed_path=(seeding.VALIDATION, epoch))
        val_accs.append(val_acc)
        if on_epoch is not None:
            on_epoch(epoch, epoch_losses[-1], val_acc)
        if val_acc >= best_val:
            best_val = val_acc
            best_epoch = epoch
            best_snapshot = {k: v.copy() for k, v in params.items()}
            best_statistics = {k: v.copy() for k, v in statistics().items()}

    load_parameters(model, best_snapshot)
    for key, live in statistics().items():
        live[...] = best_statistics[key]
    test_acc = evaluate(model, dataset, "test", noise, seed_path=(seeding.TEST,))
    report = TrainReport(
        epoch_loss=epoch_losses,
        val_accuracy=val_accs,
        best_epoch=best_epoch,
        best_val_accuracy=best_val,
        test_accuracy=test_acc,
        parameter_count=count_model_parameters(model),
    )
    return report, best_snapshot


def count_model_parameters(model) -> int:
    """Shared parameter-counting routine: total elements across named arrays."""
    return int(sum(arr.size for arr in model.parameter_arrays().values()))


def load_parameters(model, arrays: dict[str, np.ndarray]) -> None:
    """Copy named arrays into the model's live parameter arrays.

    The names must match the model's exactly and every shape must agree.
    """
    own = model.parameter_arrays()
    if set(own) != set(arrays):
        raise ConfigurationError(
            f"parameter names {sorted(arrays)} do not match model {sorted(own)}"
        )
    for key, live in own.items():
        incoming = np.asarray(arrays[key], dtype=np.float64)
        if incoming.shape != live.shape:
            raise ConfigurationError(
                f"array {key!r} has shape {incoming.shape}, expected {live.shape}"
            )
        live[...] = incoming

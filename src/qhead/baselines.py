"""Classical heads and encoder replacements for comparisons and ablations.

All models implement the trainer protocol (``parameter_arrays``,
``batch_loss_and_gradients``, ``predict_logits``) with hand-written numpy
backprop; the ``noise``/``seed_path`` arguments are accepted and ignored so
classical and hybrid models swap freely inside the training loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UnsupportedModeError
from .trainer import TrainConfig, softmax_cross_entropy_batch, train

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1


@dataclass(frozen=True)
class MlpConfig:
    """Zero or one hidden layer, its width, and optional batch normalization."""

    hidden_layers: int = 0
    hidden_dim: int = 0
    batch_norm: bool = False

    def __post_init__(self):
        if self.hidden_layers not in (0, 1):
            raise ConfigurationError(f"hidden_layers must be 0 or 1, got {self.hidden_layers}")
        if (self.hidden_dim == 0) != (self.hidden_layers == 0):
            raise ConfigurationError(
                f"hidden_dim must be 0 exactly when hidden_layers is 0, got "
                f"layers={self.hidden_layers}, dim={self.hidden_dim}"
            )
        if self.hidden_dim < 0:
            raise ConfigurationError(f"hidden_dim must be >= 0, got {self.hidden_dim}")


class LogisticModel:
    """Binary logistic regression: one weight per feature plus a bias.

    Logits are exposed as (0, w.x + b) so argmax matches the sign rule and the
    softmax loss coincides with binary cross-entropy.
    """

    def __init__(self, dim: int):
        self.weights = np.zeros(dim)
        self.bias = np.zeros(1)

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias[0]

    def predict_logits(self, X, noise=None, seed_path=()) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        z = self._scores(X)
        return np.column_stack([np.zeros_like(z), z])

    def batch_loss_and_gradients(self, X, y, noise=None, seed_path=()):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        losses, dlogits = softmax_cross_entropy_batch(self.predict_logits(X), y)
        dz = dlogits[:, 1]
        grads = {
            "weights": X.T @ dz / len(y),
            "bias": np.array([dz.mean()]),
        }
        return float(losses.mean()), grads


class _BatchNorm:
    """Per-feature batch normalization with running statistics."""

    def __init__(self, dim: int):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.updates = 0

    def forward(self, x: np.ndarray, training: bool):
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = (1 - _BN_MOMENTUM) * self.running_mean + _BN_MOMENTUM * mean
            self.running_var = (1 - _BN_MOMENTUM) * self.running_var + _BN_MOMENTUM * var
            self.updates += 1
        else:
            if self.updates == 0:
                raise UnsupportedModeError(
                    "batch norm evaluated before any training batch; statistics are undefined"
                )
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        x_hat = (x - mean) * inv_std
        return self.gamma * x_hat + self.beta, (x_hat, inv_std)

    def backward(self, dout: np.ndarray, cache) -> np.ndarray:
        x_hat, inv_std = cache
        b = len(dout)
        dgamma = (dout * x_hat).sum(axis=0)
        dbeta = dout.sum(axis=0)
        dx_hat = dout * self.gamma
        dx = (inv_std / b) * (
            b * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0)
        )
        self._grads = {"bn_gamma": dgamma / b, "bn_beta": dbeta / b}
        return dx


class MlpHead:
    """Classification head: input -> [hidden, optional batch norm, ReLU] -> classes."""

    def __init__(self, in_dim: int, num_classes: int, config: MlpConfig,
                 rng: np.random.Generator):
        self.config = config
        self.num_classes = num_classes
        if config.hidden_layers == 0:
            self.w1 = rng.standard_normal((in_dim, num_classes)) / math.sqrt(in_dim)
            self.b1 = np.zeros(num_classes)
            self.w2 = None
            self.b2 = None
            self.bn = None
        else:
            h = config.hidden_dim
            self.w1 = rng.standard_normal((in_dim, h)) * math.sqrt(2.0 / in_dim)
            self.b1 = np.zeros(h)
            self.w2 = rng.standard_normal((h, num_classes)) / math.sqrt(h)
            self.b2 = np.zeros(num_classes)
            self.bn = _BatchNorm(h) if config.batch_norm else None

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        arrays = {"w1": self.w1, "b1": self.b1}
        if self.w2 is not None:
            arrays["w2"] = self.w2
            arrays["b2"] = self.b2
        if self.bn is not None:
            arrays["bn_gamma"] = self.bn.gamma
            arrays["bn_beta"] = self.bn.beta
        return arrays

    def _forward(self, X: np.ndarray, training: bool):
        pre = X @ self.w1 + self.b1
        if self.w2 is None:
            return pre, None
        bn_cache = None
        hidden = pre
        if self.bn is not None:
            hidden, bn_cache = self.bn.forward(hidden, training)
        relu_mask = hidden > 0
        act = hidden * relu_mask
        logits = act @ self.w2 + self.b2
        return logits, (X, pre, bn_cache, relu_mask, act)

    def predict_logits(self, X, noise=None, seed_path=()) -> np.ndarray:
        logits, _ = self._forward(np.asarray(X, dtype=np.float64), training=False)
        return logits

    def batch_loss_and_gradients(self, X, y, noise=None, seed_path=()):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        logits, cache = self._forward(X, training=True)
        losses, dlogits = softmax_cross_entropy_batch(logits, y)
        b = len(y)
        if self.w2 is None:
            grads = {"w1": X.T @ dlogits / b, "b1": dlogits.mean(axis=0)}
            return float(losses.mean()), grads
        _, _, bn_cache, relu_mask, act = cache
        grads = {"w2": act.T @ dlogits / b, "b2": dlogits.mean(axis=0)}
        dact = dlogits @ self.w2.T
        dhidden = dact * relu_mask
        if self.bn is not None:
            dhidden = self.bn.backward(dhidden, bn_cache)
            grads.update(self.bn._grads)
        grads["w1"] = X.T @ dhidden / b
        grads["b1"] = dhidden.mean(axis=0)
        return float(losses.mean()), grads


class MlpEncoder:
    """Classical drop-in for the quantum encoders: input -> [hidden ReLU] -> tanh latent.

    The tanh keeps the latent inside [-1, 1] so the downstream circuit sees the
    same value range either way. ``forward`` and ``backward`` take one input
    (d,) or a batch (B, d) and use plain matmuls; the gradients of a batch are
    summed over its rows. Batch norm is refused here: it would couple the
    samples of a batch, whereas each sample's latent must depend on that
    sample alone.
    """

    def __init__(self, in_dim: int, latent_dim: int, config: MlpConfig,
                 rng: np.random.Generator):
        if config.batch_norm:
            raise ConfigurationError("batch norm is not supported inside the encoder stage")
        self.config = config
        self._latent_dim = latent_dim
        if config.hidden_layers == 0:
            self.w1 = rng.standard_normal((in_dim, latent_dim)) / math.sqrt(in_dim)
            self.b1 = np.zeros(latent_dim)
            self.w2 = None
            self.b2 = None
        else:
            h = config.hidden_dim
            self.w1 = rng.standard_normal((in_dim, h)) * math.sqrt(2.0 / in_dim)
            self.b1 = np.zeros(h)
            self.w2 = rng.standard_normal((h, latent_dim)) / math.sqrt(h)
            self.b2 = np.zeros(latent_dim)

    @property
    def latent_dim(self) -> int:
        return self._latent_dim

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        arrays = {"enc_w1": self.w1, "enc_b1": self.b1}
        if self.w2 is not None:
            arrays["enc_w2"] = self.w2
            arrays["enc_b2"] = self.b2
        return arrays

    def _forward(self, X: np.ndarray):
        pre1 = X @ self.w1 + self.b1
        if self.w2 is None:
            return np.tanh(pre1), None, None
        relu_mask = pre1 > 0
        act = pre1 * relu_mask
        return np.tanh(act @ self.w2 + self.b2), relu_mask, act

    def forward(self, x) -> np.ndarray:
        latent, _, _ = self._forward(np.asarray(x, dtype=np.float64))
        return latent

    def backward(self, x, dlatent) -> dict[str, np.ndarray]:
        """Gradients of sum_b dlatent[b] . latent(x[b]), for (B, d) or (d,) input."""
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        latent, relu_mask, act = self._forward(X)
        dpre_out = np.asarray(dlatent).reshape(latent.shape) * (1.0 - latent * latent)
        if self.w2 is None:
            return {"enc_w1": X.T @ dpre_out, "enc_b1": dpre_out.sum(axis=0)}
        grads = {"enc_w2": act.T @ dpre_out, "enc_b2": dpre_out.sum(axis=0)}
        dpre1 = (dpre_out @ self.w2.T) * relu_mask
        grads["enc_w1"] = X.T @ dpre1
        grads["enc_b1"] = dpre1.sum(axis=0)
        return grads


def logistic_train(dataset, config: TrainConfig, noise=None):
    """Train the 769-parameter logistic head; returns (model, report)."""
    model = LogisticModel(dataset.dim)
    report, _ = train(model, dataset, config, noise=noise)
    return model, report


def mlp_head_train(dataset, mlp_config: MlpConfig, config: TrainConfig,
                   num_classes: int = 2, noise=None):
    """Train a classical MLP head on the raw embeddings; returns (model, report)."""
    from . import seeding

    rng = seeding.stream(config.seed, seeding.PARAM_INIT)
    model = MlpHead(dataset.dim, num_classes, mlp_config, rng)
    report, _ = train(model, dataset, config, noise=noise)
    return model, report

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
from .trainer import softmax_cross_entropy_batch

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
            self.running_mean[...] = (1 - _BN_MOMENTUM) * self.running_mean + _BN_MOMENTUM * mean
            self.running_var[...] = (1 - _BN_MOMENTUM) * self.running_var + _BN_MOMENTUM * var
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

    def backward(self, dout: np.ndarray, cache):
        """(dx, dgamma, dbeta), the parameter gradients summed over rows."""
        x_hat, inv_std = cache
        b = len(dout)
        dx_hat = dout * self.gamma
        dx = (inv_std / b) * (
            b * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0)
        )
        return dx, (dout * x_hat).sum(axis=0), dout.sum(axis=0)


class _Mlp:
    """MLP body: input -> [hidden, optional batch norm, ReLU] -> output.

    Weights are drawn from ``rng`` in a fixed order (w1, then w2), so a head
    and an encoder of the same shapes draw the same values from one stream.
    ``_backward`` returns the gradients summed over the rows of a batch.
    """

    def __init__(self, in_dim: int, out_dim: int, config: MlpConfig,
                 rng: np.random.Generator):
        self.config = config
        if config.hidden_layers == 0:
            self.w1 = rng.standard_normal((in_dim, out_dim)) / math.sqrt(in_dim)
            self.b1 = np.zeros(out_dim)
            self.w2 = self.b2 = self.bn = None
        else:
            h = config.hidden_dim
            self.w1 = rng.standard_normal((in_dim, h)) * math.sqrt(2.0 / in_dim)
            self.b1 = np.zeros(h)
            self.w2 = rng.standard_normal((h, out_dim)) / math.sqrt(h)
            self.b2 = np.zeros(out_dim)
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

    def statistic_arrays(self) -> dict[str, np.ndarray]:
        """Arrays that training updates in place outside the optimizer."""
        bn = self.bn
        return {} if bn is None else {"bn_mean": bn.running_mean, "bn_var": bn.running_var}

    def _forward(self, X: np.ndarray, training: bool):
        """Output rows and the cache ``_backward`` reads."""
        pre = X @ self.w1 + self.b1
        if self.w2 is None:
            return pre, (X, None, None, None)
        bn_cache = None
        if self.bn is not None:
            pre, bn_cache = self.bn.forward(pre, training)
        relu_mask = pre > 0
        act = pre * relu_mask
        return act @ self.w2 + self.b2, (X, bn_cache, relu_mask, act)

    def _backward(self, dout: np.ndarray, cache) -> dict[str, np.ndarray]:
        """Gradients of sum_b dout[b] . output[b], keyed as in ``_Mlp.parameter_arrays``."""
        X, bn_cache, relu_mask, act = cache
        if self.w2 is None:
            return {"w1": X.T @ dout, "b1": dout.sum(axis=0)}
        grads = {"w2": act.T @ dout, "b2": dout.sum(axis=0)}
        dhidden = (dout @ self.w2.T) * relu_mask
        if self.bn is not None:
            dhidden, grads["bn_gamma"], grads["bn_beta"] = self.bn.backward(dhidden, bn_cache)
        grads["w1"] = X.T @ dhidden
        grads["b1"] = dhidden.sum(axis=0)
        return grads


class MlpHead(_Mlp):
    """Classification head: input -> [hidden, optional batch norm, ReLU] -> classes."""

    def predict_logits(self, X, noise=None, seed_path=()) -> np.ndarray:
        logits, _ = self._forward(np.asarray(X, dtype=np.float64), training=False)
        return logits

    def batch_loss_and_gradients(self, X, y, noise=None, seed_path=()):
        y = np.asarray(y)
        logits, cache = self._forward(np.asarray(X, dtype=np.float64), training=True)
        losses, dlogits = softmax_cross_entropy_batch(logits, y)
        b = len(y)
        grads = {k: g / b for k, g in self._backward(dlogits, cache).items()}
        return float(losses.mean()), grads


class MlpEncoder(_Mlp):
    """Classical drop-in for the quantum encoders: input -> [hidden ReLU] -> tanh latent.

    The tanh keeps the latent inside [-1, 1] so the downstream circuit sees the
    same value range either way. ``forward`` takes one input (d,) or a batch
    (B, d) and uses plain matmuls; ``backward`` sums the gradients over the
    rows from what ``forward(x, grads=True)`` kept. Batch norm is refused
    here: it would couple the samples of a batch, whereas each sample's
    latent must depend on that sample alone.
    """

    def __init__(self, in_dim: int, latent_dim: int, config: MlpConfig,
                 rng: np.random.Generator):
        if config.batch_norm:
            raise ConfigurationError("batch norm is not supported inside the encoder stage")
        super().__init__(in_dim, latent_dim, config, rng)
        self.latent_dim = latent_dim

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {f"enc_{k}": v for k, v in super().parameter_arrays().items()}

    def forward(self, x, grads: bool = False):
        """Latents; with ``grads`` also (latents, ``_forward`` cache) for ``backward``."""
        x = np.asarray(x, dtype=np.float64)
        pre, cache = self._forward(np.atleast_2d(x) if grads else x, training=grads)
        latent = np.tanh(pre)
        return (latent.reshape(x.shape[:-1] + (-1,)), (latent, cache)) if grads else latent

    def backward(self, saved, dlatent) -> dict[str, np.ndarray]:
        """Gradients of sum_b dlatent[b] . latent(x[b]), from ``forward(x, grads=True)``."""
        latent, cache = saved
        dpre = np.asarray(dlatent).reshape(latent.shape) * (1.0 - latent * latent)
        return {f"enc_{k}": g for k, g in self._backward(dpre, cache).items()}


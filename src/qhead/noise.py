"""Depolarizing gate-noise trajectories and finite-shot sampling.

Depolarizing convention: with probability p per gate, apply one uniformly
random non-identity Pauli (two-qubit gates draw uniformly over the 15
non-identity pairs). Under this convention a single-qubit rate p contracts
Bloch vectors by (1 - 4p/3).

Shot noise is the Gaussian limit of the two-outcome multinomial estimator:
z_hat = clamp(z + eps * sqrt((1 - z^2)/S), -1, 1) with eps ~ N(0, 1).
``shot_sample_expectation`` draws one such value. A finite-shot gradient is
no derivative of z_hat: it samples each +/- pi/2 pair of the shift rule with
``paired_shot_estimates``, one shared draw per pair.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ansatz import CNOT, DATA, ENCODE, PAULI, RY, GateList
from .errors import ConfigurationError

_PAULI_LABELS = "IXYZ"


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing rates, shot count (None = infinite), and rng seed."""

    p1q: float = 0.0
    p2q: float = 0.0
    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p1q <= 1.0 or not 0.0 <= self.p2q <= 1.0:
            raise ConfigurationError(
                f"depolarizing rates must be in [0, 1], got p1q={self.p1q}, p2q={self.p2q}"
            )
        if self.shots is not None and self.shots < 1:
            raise ConfigurationError(f"shots must be >= 1 when finite, got {self.shots}")


def _require_rng(rng, what: str) -> np.random.Generator:
    """``rng``, or a ConfigurationError when draws are due and there is none."""
    if rng is None:
        raise ConfigurationError(f"an rng stream is required for {what}")
    return rng


def sample_pauli_insertions(circuit: GateList, model: NoiseModel,
                            rng: np.random.Generator | None) -> GateList:
    """Draw one noise trajectory: random Pauli records after noisy gates.

    Single-qubit gates (trainable and encoding rotations) fire with p1q, CNOTs
    with p2q. Returns a new gate list; with both rates zero the input is
    returned unchanged and ``rng`` may be None. Encoding steps must be
    expanded first so each constituent rotation can receive its own insertion.
    """
    if model.p1q == 0.0 and model.p2q == 0.0:
        return circuit
    rng = _require_rng(rng, "gate-noise trajectories")
    gates: list[tuple] = []
    for g in circuit.gates:
        if g[0] == ENCODE:
            raise ConfigurationError("expand encoding steps before sampling gate noise")
        gates.append(g)
        if g[0] in (RY, DATA):
            if model.p1q > 0.0 and rng.random() < model.p1q:
                gates.append((PAULI, g[1], _PAULI_LABELS[1 + rng.integers(3)]))
        elif g[0] == CNOT:
            if model.p2q > 0.0 and rng.random() < model.p2q:
                pair = int(rng.integers(1, 16))
                on_control = _PAULI_LABELS[pair // 4]
                on_target = _PAULI_LABELS[pair % 4]
                if on_control != "I":
                    gates.append((PAULI, g[1], on_control))
                if on_target != "I":
                    gates.append((PAULI, g[2], on_target))
    return GateList(circuit.num_qubits, gates)


def gaussian_shot_estimate(z, shots: int, eps):
    """clamp(z + eps * sqrt((1 - z^2)/shots), -1, 1); broadcasts over arrays."""
    if shots < 1:
        raise ConfigurationError(f"shots must be >= 1, got {shots}")
    z = np.asarray(z, dtype=np.float64)
    sigma = np.sqrt(np.clip(1.0 - z * z, 0.0, None) / shots)
    return np.clip(z + np.asarray(eps) * sigma, -1.0, 1.0)


def paired_shot_estimates(plus, minus, shots: int, rng: np.random.Generator | None):
    """Finite-shot estimates of each +/- pair, sharing one normal draw per pair.

    The shared draw (common random numbers) keeps the shot noise of a shifted
    pair correlated, so it largely cancels in their difference.
    """
    eps = _require_rng(rng, "shot sampling").standard_normal(len(plus))
    return gaussian_shot_estimate(plus, shots, eps), gaussian_shot_estimate(minus, shots, eps)


def shot_sample_expectation(z: float, shots: int | None,
                            rng: np.random.Generator | None) -> float:
    """Sample a finite-shot estimate of <Z> = z; exact at z = +/-1 and S = inf."""
    z = float(z)
    if not abs(z) <= 1.0 + 1e-9:  # also rejects NaN
        raise ConfigurationError(f"|z| must be <= 1, got {z!r}")
    z = min(max(z, -1.0), 1.0)
    if shots is None:
        return z
    eps = _require_rng(rng, "shot sampling").standard_normal()
    return float(gaussian_shot_estimate(z, shots, eps))


def multinomial_oracle(p, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact multinomial counts; non-differentiable, used as a test reference."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ConfigurationError(f"p must be a 1-D probability vector, got shape {p.shape}")
    if np.any(p < -1e-12):
        raise ConfigurationError("probabilities must be non-negative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ConfigurationError(f"probabilities sum to {total}, expected 1 within 1e-9")
    if n < 0:
        raise ConfigurationError(f"shot count must be non-negative, got {n}")
    return rng.multinomial(n, np.clip(p, 0.0, None) / total)


def multinomial_z_estimate(z: float, shots: int, rng: np.random.Generator) -> float:
    """Exactly-sampled <Z> estimator: (n_plus - n_minus)/S from the two-outcome law."""
    p_plus = (1.0 + float(z)) / 2.0
    counts = multinomial_oracle([p_plus, 1.0 - p_plus], shots, rng)
    return float(counts[0] - counts[1]) / shots


# ---------------------------------------------------------------------------
# dense density-matrix reference (1 to 10 qubits), the oracle for trajectory noise

_MAX_REFERENCE_QUBITS = 10  # the paper's width; a 2^10 x 2^10 float64 rho is 8 MB
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
# Y enters as XZ = -iY, which conjugates rho as Y does and keeps it real
_PAULI_MATS = {"I": np.eye(2), "X": _X, "Y": _X @ _Z, "Z": _Z}
_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def _dense(factors: dict, n: int) -> np.ndarray:
    """Kronecker product of ``factors[q]`` over qubits q = 0..n-1, qubit 0 most
    significant, with the identity on every qubit ``factors`` does not name."""
    for q in factors:
        if not 0 <= q < n:
            raise ConfigurationError(f"qubit {q} is outside the {n}-qubit register")
    out = np.ones((1, 1))
    for q in range(n):
        out = np.kron(out, factors.get(q, _PAULI_MATS["I"]))
    return out


def depolarizing_reference_expectation(circuit: GateList, params,
                                       model: NoiseModel | None = None,
                                       measured: int = 0) -> float:
    """Exact <Z_measured> under the depolarizing channel, by density-matrix evolution.

    Takes 1 to 10 qubits and RY, CNOT and Pauli records; this is the
    reference the Monte-Carlo trajectory average must converge to. After each
    RY (rate p1q) and CNOT (rate p2q), rho becomes the uniform mixture over
    the 3 or 15 non-identity Pauli strings on the gate's qubits. Every matrix
    is real: Y is applied as XZ = -iY, and (XZ) rho (XZ)^T = Y rho Y^dagger.
    """
    n = circuit.num_qubits
    if not 1 <= n <= _MAX_REFERENCE_QUBITS:
        raise ConfigurationError(
            f"density-matrix reference takes 1 to {_MAX_REFERENCE_QUBITS} qubits, got {n}")
    params = np.asarray(params if params is not None else [], dtype=np.float64)
    p1q, p2q = (model.p1q, model.p2q) if model is not None else (0.0, 0.0)
    observable = _dense({measured: _Z}, n)

    rho = np.zeros((1 << n, 1 << n))
    rho[0, 0] = 1.0
    for g in circuit.gates:
        if g[0] == RY:
            c, s = np.cos(params[g[2]] / 2.0), np.sin(params[g[2]] / 2.0)
            u, qubits, p = _dense({g[1]: np.array([[c, -s], [s, c]])}, n), g[1:2], p1q
        elif g[0] == CNOT:
            u = _dense({g[1]: _P0}, n) + _dense({g[1]: _P1, g[2]: _X}, n)
            qubits, p = g[1:3], p2q
        elif g[0] == PAULI:
            u, p = _dense({g[1]: _PAULI_MATS[g[2]]}, n), 0.0
        else:
            raise ConfigurationError(f"unknown gate record {g!r}")
        rho = u @ rho @ u.T
        if p > 0.0:
            strings = (_dense({q: _PAULI_MATS[l] for q, l in zip(qubits, labels)}, n)
                       for labels in itertools.product(_PAULI_LABELS, repeat=len(qubits)))
            next(strings)  # the identity
            mixed = sum(t @ rho @ t.T for t in strings)
            rho = (1.0 - p) * rho + (p / (4 ** len(qubits) - 1)) * mixed
    return float(np.trace(observable @ rho))

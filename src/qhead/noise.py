"""Depolarizing gate-noise trajectories and finite-shot sampling.

Depolarizing convention: with probability p per gate, apply one uniformly
random non-identity Pauli (two-qubit gates draw uniformly over the 15
non-identity pairs). Under this convention a single-qubit rate p contracts
Bloch vectors by (1 - 4p/3).

Shot noise is the Gaussian limit of the two-outcome multinomial estimator:
z_hat = clamp(z + eps * sqrt((1 - z^2)/S), -1, 1) with eps ~ N(0, 1), applied
elementwise by ``gaussian_shot_estimate``. A finite-shot gradient is no
derivative of z_hat: each +/- pi/2 pair of the shift rule shares one draw
(common random numbers), so qhead simulates correlated pairs, not separate
executions; at the paper shape and 8192 shots the pair's shot noise mostly
cancels, to a median of about 2e-4 of what separate executions would give.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import CNOT, DATA, PAULI, RY, GateList
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
    with p2q, so each data rotation of an encoding step can receive its own
    insertion. Returns a new gate list; with both rates zero the input is
    returned unchanged and ``rng`` may be None.
    """
    if model.p1q == 0.0 and model.p2q == 0.0:
        return circuit
    rng = _require_rng(rng, "gate-noise trajectories")
    gates: list[tuple] = []
    for g in circuit.gates:
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


def gaussian_shot_estimate(z, shots: int | None, eps):
    """clamp(z + eps * sqrt((1 - z^2)/shots), -1, 1) elementwise; the clamped z at shots None.

    |z| may pass 1 by rounding and is clamped first; beyond 1 + 1e-9, or NaN, it is rejected.
    """
    z = np.asarray(z, dtype=np.float64)
    worst = float(np.max(np.abs(z), initial=0.0))
    if not worst <= 1.0 + 1e-9:  # also rejects NaN
        raise ConfigurationError(f"|z| must be <= 1, got {worst!r}")
    z = np.clip(z, -1.0, 1.0)
    if shots is None:
        return z
    if shots < 1:
        raise ConfigurationError(f"shots must be >= 1, got {shots}")
    return np.clip(z + np.asarray(eps) * np.sqrt((1.0 - z * z) / shots), -1.0, 1.0)


def shot_sample_expectation(z: float, shots: int | None,
                            rng: np.random.Generator | None) -> float:
    """One finite-shot estimate of <Z> = z; exact at z = +/-1 and S = inf."""
    eps = None if shots is None else _require_rng(rng, "shot sampling").standard_normal()
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
# density-matrix reference (1 to 10 qubits) on the statevector kernels, the oracle for trajectories

_MAX_REFERENCE_QUBITS = 10  # the paper's width; a 2^10 x 2^10 float64 rho is 8 MB


def _twirl(rho: np.ndarray, n: int, q: int) -> None:
    """rho <- (I/2) (x) Tr_q rho in place: average qubit q's diagonal blocks, zero the others."""
    v = rho.reshape(1 << q, 2, 1 << (n - q - 1), 1 << q, 2, 1 << (n - q - 1))
    v[:, 0, :, :, 0] = v[:, 1, :, :, 1] = (v[:, 0, :, :, 0] + v[:, 1, :, :, 1]) / 2.0
    v[:, 0, :, :, 1] = v[:, 1, :, :, 0] = 0.0


def depolarizing_reference_expectation(circuit: GateList, params,
                                       model: NoiseModel | None = None,
                                       measured: int = 0) -> float:
    """Exact <Z_measured> under the depolarizing channel, by density-matrix evolution.

    Takes 1 to 10 qubits and RY, CNOT and untagged Pauli records; this is the
    reference the Monte-Carlo trajectory average must converge to. rho is
    real, held as (2^n, 2^n) rows: ``grad._apply_gate`` gives rho U^T on the
    rows, then U rho U^T on rho as one 2n-qubit row, whose first n qubits
    index the rows. Y enters as XZ = -iY, and (XZ) rho (XZ)^T = Y rho Y^dagger.
    After an RY (rate p1q) or a CNOT (rate p2q) on k qubits S, rho becomes the
    uniform mixture over the 4^k - 1 non-identity Pauli strings on S, in closed
    form (1 - p - p/(4^k - 1)) rho + p 4^k/(4^k - 1) T_S(rho), with the twirl
    T_S = I_S/2^k (x) Tr_S taken one qubit of S at a time.
    """
    from .grad import _apply_gate, _check_records, _z_diagonal

    n = circuit.num_qubits
    if not 1 <= n <= _MAX_REFERENCE_QUBITS:
        raise ConfigurationError(
            f"density-matrix reference takes 1 to {_MAX_REFERENCE_QUBITS} qubits, got {n}")
    if not 0 <= measured < n:
        raise ConfigurationError(f"qubit {measured} is outside the {n}-qubit register")
    _check_records(circuit)
    params = np.asarray(params if params is not None else [], dtype=np.float64)
    p1q, p2q = (model.p1q, model.p2q) if model is not None else (0.0, 0.0)
    rho = np.diag(np.eye(1, 1 << n)[0])  # |0...0><0...0|
    for g in circuit.gates:
        if g[0] not in (RY, CNOT, PAULI) or len(g) != 3:
            raise ConfigurationError(f"unknown gate record {g!r}")
        _apply_gate(rho, n, g, params, None)  # rho U^T
        _apply_gate(rho.reshape(-1), 2 * n, g, params, None)  # U rho U^T
        qubits, p = (g[1:2], p1q) if g[0] == RY else (g[1:3], p2q) if g[0] == CNOT else ((), 0.0)
        if p > 0.0:
            twirled, d = rho.copy(), 4 ** len(qubits)
            for q in qubits:
                _twirl(twirled, n, q)
            rho = (1.0 - p - p / (d - 1)) * rho + (p * d / (d - 1)) * twirled
    return float(_z_diagonal(np.eye(n)[measured], n) @ np.diagonal(rho))

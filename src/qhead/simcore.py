"""Noiseless statevector core: state construction, gates, encodings, measurement.

Convention: qubit 0 is the most significant bit of the basis index, so for two
qubits the amplitude order is |00>, |01>, |10>, |11>. Gates act in place on the
amplitude array through strided views (never via full 2^Q x 2^Q matrices) and
return the state, so calls can be chained.

The private ``_*`` kernels operate on bare arrays whose last axis holds 2^Q
amplitudes times a row factor R = ``amps.shape[-1] >> Q``. With R = 1 any
leading axes are batch entries and angles broadcast against them (the fused
engines, the exact channel, the public functions and every measurement).
With R > 1 the last axis holds R rows amplitude-major, as a flat (2^Q, R)
array, and an angle with R values gives each row its own (``grad.run_gates``
and the adjoint sweep). ``amps.size >> Q`` counts a call's rows either way.
The arrays are complex, or real where the caller only reads |amplitude|^2:
Y on a real array applies XZ = -iY. The public functions wrap a single
complex :class:`StateVector`, which is the shape the rest of the package
exposes; the one batched exception is :func:`amplitude_encode_rows`, which
loads many inputs as real (B, 2^Q) rows.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateInputError

MAX_QUBITS = 24
DEGENERATE_NORM = 1e-12


class StateVector:
    """Pure state of ``num_qubits`` qubits as 2^Q complex amplitudes."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray):
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


# ---------------------------------------------------------------------------
# array kernels


def _qubit_view(amps: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    """Reshape to (..., 2^q, 2, 2^(Q-q-1), R): the chosen qubit alone on axis -3."""
    rows = amps.shape[-1] >> num_qubits
    return amps.reshape(*amps.shape[:-1], 1 << qubit, 2, 1 << (num_qubits - qubit - 1), rows)


def _ry(amps: np.ndarray, num_qubits: int, qubit: int, theta) -> np.ndarray:
    v = _qubit_view(amps, num_qubits, qubit)
    half = 0.5 * np.asarray(theta, dtype=np.float64)
    if v.shape[-1] == 1:  # against the leading axes; else along the row factor
        half = half[..., None, None, None]
    c, s = np.cos(half), np.sin(half)
    a, b = v[..., 0, :, :], v[..., 1, :, :]
    top = c * a
    top -= s * b
    bottom = s * a
    bottom += c * b
    v[..., 0, :, :], v[..., 1, :, :] = top, bottom
    return amps


def _cnot(amps: np.ndarray, num_qubits: int, control: int, target: int) -> np.ndarray:
    lead, rows = amps.shape[:-1], amps.shape[-1] >> num_qubits
    lo, hi = (control, target) if control < target else (target, control)
    v = amps.reshape(
        *lead, 1 << lo, 2, 1 << (hi - lo - 1), 2, (1 << (num_qubits - hi - 1)) * rows
    )
    if control < target:
        one_a = (Ellipsis, 1, slice(None), 0, slice(None))
        one_b = (Ellipsis, 1, slice(None), 1, slice(None))
    else:
        one_a = (Ellipsis, 0, slice(None), 1, slice(None))
        one_b = (Ellipsis, 1, slice(None), 1, slice(None))
    tmp = v[one_a].copy()
    v[one_a] = v[one_b]
    v[one_b] = tmp
    return amps


def _pauli(amps: np.ndarray, num_qubits: int, qubit: int, which: str) -> np.ndarray:
    v = _qubit_view(amps, num_qubits, qubit)
    if which == "Z":
        v[..., 1, :, :] *= -1.0
        return amps
    a = v[..., 0, :, :].copy()
    b = v[..., 1, :, :]
    if which == "X":
        v[..., 0, :, :] = b
        v[..., 1, :, :] = a
    elif which == "Y":
        if np.iscomplexobj(amps):
            v[..., 0, :, :] = -1j * b
            v[..., 1, :, :] = 1j * a
        else:
            # Y = i.XZ: a real array gets XZ (Z, then X), dropping the global
            # phase i, which no |amplitude|^2 can see
            v[..., 0, :, :] = -b
            v[..., 1, :, :] = a
    else:
        raise ConfigurationError(f"unknown Pauli label {which!r}, expected X, Y, or Z")
    return amps


def _z_expectation(amps: np.ndarray, num_qubits: int, qubit: int):
    v = _qubit_view(amps, num_qubits, qubit)[..., 0]
    # v.imag of a real array is a fresh array of zeros
    pr = v.real**2 + v.imag**2 if np.iscomplexobj(v) else v * v
    return pr[..., 0, :].sum(axis=(-2, -1)) - pr[..., 1, :].sum(axis=(-2, -1))


def _all_z_expectations(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    """<Z_q> for every qubit, stacked on the last axis."""
    return np.stack(
        [_z_expectation(amps, num_qubits, q) for q in range(num_qubits)], axis=-1
    )


# ---------------------------------------------------------------------------
# public single-state operations


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise ConfigurationError(
            f"qubit index {qubit} out of range for {state.num_qubits} qubits"
        )


def zero_state(num_qubits: int) -> StateVector:
    """|0...0> on ``num_qubits`` qubits."""
    amps = np.zeros(_register_dim(num_qubits, 0), dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def apply_ry(state: StateVector, qubit: int, theta: float) -> StateVector:
    """Rotate ``qubit`` about Y by ``theta`` radians (in place)."""
    _check_qubit(state, qubit)
    _ry(state.amplitudes, state.num_qubits, qubit, theta)
    return state


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip ``target`` where ``control`` is 1 (in place)."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ConfigurationError(f"control and target coincide at qubit {control}")
    _cnot(state.amplitudes, state.num_qubits, control, target)
    return state


def apply_pauli(state: StateVector, qubit: int, which: str) -> StateVector:
    """Apply Pauli X, Y, or Z to ``qubit`` (in place)."""
    _check_qubit(state, qubit)
    _pauli(state.amplitudes, state.num_qubits, qubit, which)
    return state


def _register_dim(num_qubits: int, length: int) -> int:
    """2^Q, after checking the width and that ``length`` values fit in it."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ConfigurationError(
            f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}"
        )
    dim = 1 << num_qubits
    if length > dim:
        raise ConfigurationError(
            f"vector of length {length} does not fit in {num_qubits} qubits (max {dim})"
        )
    return dim


def _unit_vector(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` divided by its norm; non-finite and near-zero vectors are rejected."""
    nrm = float(np.linalg.norm(x))
    if not math.isfinite(nrm):
        bad = np.flatnonzero(~np.isfinite(x))
        where = f"index {bad[0]} holds {x[bad[0]]}" if bad.size else "its norm overflows"
        raise DataError(f"{what} is not finite: {where}")
    if nrm < DEGENERATE_NORM:
        raise DegenerateInputError(
            f"{what} has norm {nrm:.3e}, below {DEGENERATE_NORM:.0e}; refusing to normalize"
        )
    return x / nrm


def amplitude_encode(x, num_qubits: int) -> StateVector:
    """Load a real vector as normalized amplitudes, zero-padded to 2^Q.

    The state is written directly (no preparation circuit). Vectors with norm
    below ``DEGENERATE_NORM`` are rejected rather than silently normalized.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ConfigurationError(f"expected a non-empty 1-D vector, got shape {x.shape}")
    amps = np.zeros(_register_dim(num_qubits, x.size), dtype=np.complex128)
    amps[: x.size] = _unit_vector(x, "input vector")
    return StateVector(num_qubits, amps)


def amplitude_encode_rows(X, num_qubits: int) -> np.ndarray:
    """Amplitude-encode every row of ``X`` (B, d) into one real (B, 2^Q) array.

    Each row is divided by its own ``np.linalg.norm``, exactly as
    :func:`amplitude_encode` does, so row b equals the real part of
    ``amplitude_encode(X[b])`` bit for bit (a row-wise ``norm(axis=1)``
    rounds differently). The checks are the same, naming the row.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ConfigurationError(f"expected a (rows, d) array with d >= 1, got shape {X.shape}")
    amps = np.zeros((X.shape[0], _register_dim(num_qubits, X.shape[1])))
    for b, x in enumerate(X):
        amps[b, : x.size] = _unit_vector(x, f"input row {b}")
    return amps


def angle_encode(state: StateVector, angles) -> StateVector:
    """Apply RY(angles[i]) to qubit i for all i (in place, composable mid-circuit)."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (state.num_qubits,):
        raise ConfigurationError(
            f"need one angle per qubit: got {angles.shape}, expected ({state.num_qubits},)"
        )
    for q in range(state.num_qubits):
        _ry(state.amplitudes, state.num_qubits, q, angles[q])
    return state


def z_expectation(state: StateVector, qubit: int) -> float:
    """<Z> on ``qubit``: sum of |a_i|^2 signed by the qubit's bit value."""
    _check_qubit(state, qubit)
    return float(_z_expectation(state.amplitudes, state.num_qubits, qubit))


def probabilities(state: StateVector) -> np.ndarray:
    """Elementwise squared magnitudes of the amplitudes."""
    a = state.amplitudes
    return a.real**2 + a.imag**2

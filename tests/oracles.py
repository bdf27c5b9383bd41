"""Independent dense-matrix reference simulator used only by tests.

Builds full 2^Q x 2^Q unitaries with np.kron and multiplies them out, so it
shares no code path with the strided kernels it checks. Keep it small (Q <= 10).
"""
from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def ry_mat(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def embed(mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Single-qubit operator on `qubit` (qubit 0 = most significant bit)."""
    out = np.array([[1.0]], dtype=complex)
    for q in range(n):
        out = np.kron(out, mat if q == qubit else I2)
    return out


def cnot_mat(control: int, target: int, n: int) -> np.ndarray:
    return embed(P0, control, n) + embed(P1, control, n) @ embed(X, target, n)


def dense_run(gates, n: int, params=None, latent=None, initial=None) -> np.ndarray:
    """Run a gate-record list through dense matrix products."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    if initial is not None:
        psi = np.asarray(initial, dtype=complex).copy()
    for g in gates:
        psi = gate_mat(g, n, params, latent) @ psi
    return psi


def gate_mat(g, n: int, params=None, latent=None) -> np.ndarray:
    """The 2^n x 2^n unitary of one gate record."""
    kind = g[0]
    if kind == "ry":
        return embed(ry_mat(params[g[2]]), g[1], n)
    if kind == "data":
        return embed(ry_mat(latent[g[2]]), g[1], n)
    if kind == "cnot":
        return cnot_mat(g[1], g[2], n)
    if kind == "pauli":
        return embed({"X": X, "Y": Y, "Z": Z}[g[2]], g[1], n)
    raise ValueError(f"unexpected record {g!r}")


def dense_z(psi: np.ndarray, qubit: int, n: int) -> float:
    return float((psi.conj() @ embed(Z, qubit, n) @ psi).real)


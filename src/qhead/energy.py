"""Inference-energy estimates for running the re-uploading circuit on a QPU
versus statevector simulation on a GPU, and the qubit count where they cross.

With gate counts SQ (single-qubit) and TQ (two-qubit) for an Nq-qubit circuit:

    E_qpu = Nq * (SQ * t_1q + TQ * t_2q) * shots * P_qpu / 1000   [kJ]
    E_gpu = 2^Nq * (SQ * 4 + TQ * 8) / F_gpu * P_gpu / 1000       [kJ]

Per-gate statevector updates cost 4 (single-qubit) or 8 (two-qubit) floating
point operations per amplitude; GPU communication overhead is taken as zero,
which flatters the GPU and makes the crossover estimate conservative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .ansatz import CircuitSpec, gate_counts
from .errors import ConfigurationError


@dataclass(frozen=True)
class EnergyConstants:
    qpu_watts_per_qubit: float = 300.0
    t_1q_seconds: float = 1e-4
    t_2q_seconds: float = 1e-5
    shots: int = 8000
    gpu_watts: float = 700.0
    gpu_flops: float = 3.4e13

    def __post_init__(self):
        for name in ("qpu_watts_per_qubit", "t_1q_seconds", "t_2q_seconds",
                     "shots", "gpu_watts", "gpu_flops"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and positive")


DEFAULT_CONSTANTS = EnergyConstants()


def _finite_kj(energy, what: str, qubits: int) -> float:
    """``energy()``, or ``ConfigurationError`` when it leaves the float range."""
    try:
        kj = energy()
    except OverflowError:  # an int operand too large for a float
        kj = math.inf
    if not math.isfinite(kj):
        raise ConfigurationError(f"the {what} energy at {qubits} qubits exceeds the float range")
    return kj


def qpu_energy_kj(spec: CircuitSpec, constants: EnergyConstants = DEFAULT_CONSTANTS) -> float:
    single, two = gate_counts(spec)
    seconds = single * constants.t_1q_seconds + two * constants.t_2q_seconds
    return _finite_kj(lambda: spec.qubits * seconds * constants.shots
                      * constants.qpu_watts_per_qubit / 1000.0, "QPU", spec.qubits)


def gpu_energy_kj(spec: CircuitSpec, constants: EnergyConstants = DEFAULT_CONSTANTS) -> float:
    single, two = gate_counts(spec)
    flops = (1 << spec.qubits) * (single * 4 + two * 8)
    return _finite_kj(lambda: flops / constants.gpu_flops * constants.gpu_watts / 1000.0,
                      "GPU", spec.qubits)


def crossover_curve(constants: EnergyConstants = DEFAULT_CONSTANTS, qubit_range=range(2, 61)):
    """Rows of (qubits, e_qpu_kj, e_gpu_kj) for ``CircuitSpec(qubits=q)`` at each scanned q."""
    rows = []
    for q in qubit_range:
        spec = CircuitSpec(qubits=q)
        rows.append((q, qpu_energy_kj(spec, constants), gpu_energy_kj(spec, constants)))
    return rows


def find_crossover(constants: EnergyConstants = DEFAULT_CONSTANTS,
                   qubit_range=range(2, 61)) -> int | None:
    """Smallest scanned qubit count where GPU energy meets or exceeds QPU energy."""
    for q, e_qpu, e_gpu in crossover_curve(constants, qubit_range):
        if e_gpu >= e_qpu:
            return q
    return None

"""Kernel phase: RY, CNOT and Pauli through qhead's public ``apply_*`` functions.

Each shape is a batched ``StateVector`` of ``rows`` states of ``2^q``
amplitudes, in the dtype qhead's own ``zero_state`` uses. A round applies the
kernel once to every qubit (CNOT on the ring pairs (i, i+1 mod q), Pauli
cycling X, Y, Z); the reported time is the median round divided by the
amplitudes touched. Every array here fits in the last-level cache, so these
are cache-resident figures, not memory-bandwidth figures.
"""
from __future__ import annotations

import time

import numpy as np

# name -> (qubits, rows); the rows match the workloads: 1 state per adjoint
# sweep, 221 shift rows at the paper shape, 133 at the smoke shape
SHAPES = {
    "q10x1": (10, 1),
    "q10x221": (10, 221),
    "q6x133": (6, 133),
    "q14x221": (14, 221),
}
KERNELS = ("ry", "cnot", "pauli")
_MIN_ROUND_S = 0.01
_ROUNDS = 5


def _cache_bytes(machine: dict, level: str) -> int | None:
    size = machine.get("caches", {}).get(level)
    if not size:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def residency(nbytes: int, machine: dict) -> str:
    """Where an array of ``nbytes`` sits relative to this machine's caches."""
    l2 = _cache_bytes(machine, "L2")
    l3 = _cache_bytes(machine, "L3")
    if l2 and nbytes <= l2:
        return "fits in L2"
    if l3 and nbytes <= l3:
        return "fits in L3"
    if l3 and nbytes < 4 * l3:
        return "exceeds L3, under 4x L3"
    return "exceeds 4x L3" if l3 else "cache sizes unknown"


def _ops(simcore, state, kernel: str, q: int):
    if kernel == "ry":
        return [lambda i=i: simcore.apply_ry(state, i, 0.3) for i in range(q)]
    if kernel == "cnot":
        return [lambda i=i: simcore.apply_cnot(state, i, (i + 1) % q) for i in range(q)]
    return [lambda i=i: simcore.apply_pauli(state, i, "XYZ"[i % 3]) for i in range(q)]


def _bytes_per_round(kernel: str, q: int, nbytes: int) -> int:
    if kernel == "ry":
        return 2 * nbytes * q
    if kernel == "cnot":
        return nbytes * q
    return sum(nbytes if "XYZ"[i % 3] == "Z" else 2 * nbytes for i in range(q))


def kernel_phase(machine: dict, seed: int) -> tuple[dict[str, float], list[dict], list[str]]:
    """Per-layer kernel metrics, one record per (shape, kernel), and any failures.

    A failure is a state whose row norms drift from 1 by more than 1e-9, which
    no sequence of unitary gates may cause.
    """
    from qhead import simcore

    metrics: dict[str, float] = {}
    records: list[dict] = []
    failures: list[str] = []
    rng = np.random.default_rng(seed)
    for shape, (q, rows) in SHAPES.items():
        dtype = simcore.zero_state(q).amplitudes.dtype
        amps = rng.standard_normal((rows, 1 << q)).astype(dtype)
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        state = simcore.StateVector(q, amps)
        metrics[f"simcore.state_bytes.{shape}"] = amps.nbytes
        for kernel in KERNELS:
            ops = _ops(simcore, state, kernel, q)
            start = time.perf_counter()
            for op in ops:
                op()
            first = time.perf_counter() - start
            repeats = max(1, int(_MIN_ROUND_S / max(first, 1e-9)))
            rounds = []
            for _ in range(_ROUNDS):
                start = time.perf_counter()
                for _ in range(repeats):
                    for op in ops:
                        op()
                rounds.append((time.perf_counter() - start) / repeats)
            ns_per_amp = float(np.median(rounds)) / (q * rows * (1 << q)) * 1e9
            metrics[f"simcore.{kernel}_ns_per_amp.{shape}"] = ns_per_amp
            records.append({
                "shape": shape, "kernel": kernel, "ns_per_amp": ns_per_amp,
                "computed_bytes_per_call": _bytes_per_round(kernel, q, amps.nbytes) // q,
                "state_bytes": amps.nbytes, "residency": residency(amps.nbytes, machine),
            })
        drift = float(np.max(np.abs(np.linalg.norm(state.amplitudes, axis=1) - 1.0)))
        if drift > 1e-9:
            failures.append(f"kernel phase {shape}: row norm drifted by {drift:.3e}")
    return metrics, records, failures

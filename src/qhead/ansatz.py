"""Circuit layout construction: entangling layers, main and re-uploading blocks.

A circuit is a :class:`GateList` of plain tuples over a fixed register width:

    ("cnot", control, target)
    ("ry", qubit, slot)       trainable rotation reading parameter ``slot``
    ("data", qubit, index)    encoding rotation reading ``latent[index]``
    ("pauli", qubit, label)   Pauli insertion from a noise trajectory
    ("pauli", qubit, label, row)  the same, on row ``row`` of a batch only

An entangling layer with offset c wires CNOT(i -> (i+c) mod Q) followed by a
trainable RY on the target, for i = 0..Q-1, consuming Q parameters. A block of
L layers cycles the offset 1, 2, ..., C, 1, 2, ... (block-local). An
encoding step loads a latent of ``rounds`` x Q values as ``rounds`` passes of
Q data rotations; pass e on qubit i reads ``latent[e * Q + i]``. The head
circuit is an encoding step, a main block of M layers, then R repetitions of
[encoding step, re-uploading block of N layers].
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError

CNOT = "cnot"
RY = "ry"
DATA = "data"
PAULI = "pauli"


@dataclass
class GateList:
    """Ordered gate records over ``num_qubits`` qubits."""

    num_qubits: int
    gates: list[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


@dataclass(frozen=True)
class CircuitSpec:
    """Declarative description of the re-uploading head circuit."""

    qubits: int
    connectivity: int = 1
    main_layers: int = 2
    reupload_layers: int = 1
    reupload_count: int = 4

    def __post_init__(self):
        if self.qubits < 2:
            raise ConfigurationError(f"need at least 2 qubits, got {self.qubits}")
        if not 1 <= self.connectivity < self.qubits:
            raise ConfigurationError(
                f"connectivity must satisfy 1 <= C < qubits, got C={self.connectivity} "
                f"for {self.qubits} qubits"
            )
        if self.main_layers < 0 or self.reupload_layers < 0 or self.reupload_count < 0:
            raise ConfigurationError("layer and repeat counts must be non-negative")


def build_entangling_layer(qubits: int, offset: int, param_offset: int = 0) -> GateList:
    """One ring layer: CNOT(i, (i+offset) mod Q) + RY on the target, Q parameters."""
    if not 1 <= offset < qubits:
        raise ConfigurationError(
            f"offset must satisfy 1 <= c < qubits, got c={offset} for {qubits} qubits"
        )
    gates: list[tuple] = []
    for i in range(qubits):
        target = (i + offset) % qubits
        gates.append((CNOT, i, target))
        gates.append((RY, target, param_offset + i))
    return GateList(qubits, gates)


def build_block(
    qubits: int, connectivity: int, num_layers: int, param_offset: int = 0
) -> GateList:
    """Stack ``num_layers`` entangling layers, cycling offsets 1..connectivity."""
    if num_layers < 0:
        raise ConfigurationError(f"num_layers must be >= 0, got {num_layers}")
    if num_layers > 0 and not 1 <= connectivity < qubits:
        raise ConfigurationError(
            f"connectivity must satisfy 1 <= C < qubits, got C={connectivity} "
            f"for {qubits} qubits"
        )
    gates: list[tuple] = []
    for layer in range(num_layers):
        offset = (layer % connectivity) + 1
        gates.extend(build_entangling_layer(qubits, offset, param_offset + layer * qubits))
    return GateList(qubits, gates)


def assemble_head_circuit(spec: CircuitSpec, rounds: int) -> GateList:
    """Encoding step, main block, then R repetitions of [encoding step, re-uploading block].

    Each encoding step is ``rounds`` passes of data rotations, (DATA, i, e*Q + i)
    for pass e on qubit i, so the circuit reads a latent of ``rounds`` * Q values.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    q = spec.qubits
    encode = [(DATA, i, e * q + i) for e in range(rounds) for i in range(q)]
    gates: list[tuple] = encode + build_block(q, spec.connectivity, spec.main_layers).gates
    offset = spec.main_layers * q
    for _ in range(spec.reupload_count):
        gates.extend(encode)
        gates.extend(build_block(q, spec.connectivity, spec.reupload_layers, offset).gates)
        offset += spec.reupload_layers * q
    return GateList(q, gates)


def count_parameters(spec: CircuitSpec) -> int:
    """Trainable rotation count: (M + R*N) * Q."""
    return (spec.main_layers + spec.reupload_count * spec.reupload_layers) * spec.qubits


def gate_counts(spec: CircuitSpec) -> tuple[int, int]:
    """(single-qubit, two-qubit) gate counts including encoding rotations.

    Each trainable rotation follows one CNOT; each encoding step adds Q rotations.
    """
    two = count_parameters(spec)
    return two + (1 + spec.reupload_count) * spec.qubits, two


def parameter_slot_count(circuit: GateList) -> int:
    """Number of distinct RY parameter slots; slots must be contiguous from 0."""
    slots = {g[2] for g in circuit.gates if g[0] == RY}
    if not slots:
        return 0
    if slots != set(range(len(slots))):
        raise ConfigurationError(f"parameter slots are not contiguous from 0: {sorted(slots)}")
    return len(slots)

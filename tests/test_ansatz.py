"""Circuit layout construction and counting."""
from __future__ import annotations

import pytest

from qhead.ansatz import (
    CNOT,
    DATA,
    RY,
    CircuitSpec,
    GateList,
    assemble_head_circuit,
    build_block,
    build_entangling_layer,
    count_parameters,
    gate_counts,
    parameter_slot_count,
)
from qhead.errors import ConfigurationError


class TestEntanglingLayer:
    def test_q4_c1_wiring(self):
        layer = build_entangling_layer(4, 1)
        assert layer.gates == [
            (CNOT, 0, 1), (RY, 1, 0),
            (CNOT, 1, 2), (RY, 2, 1),
            (CNOT, 2, 3), (RY, 3, 2),
            (CNOT, 3, 0), (RY, 0, 3),
        ]

    def test_q2_counts(self):
        layer = build_entangling_layer(2, 1)
        assert sum(1 for g in layer if g[0] == CNOT) == 2
        assert parameter_slot_count(layer) == 2

    @pytest.mark.parametrize("q", [3, 5, 8])
    def test_gate_counts_per_layer(self, q):
        layer = build_entangling_layer(q, 1, param_offset=0)
        assert sum(1 for g in layer if g[0] == CNOT) == q
        assert sum(1 for g in layer if g[0] == RY) == q

    def test_param_offset(self):
        layer = build_entangling_layer(3, 2, param_offset=5)
        assert {g[2] for g in layer if g[0] == RY} == {5, 6, 7}

    @pytest.mark.parametrize("c", [0, 4, 7])
    def test_offset_out_of_range(self, c):
        with pytest.raises(ConfigurationError):
            build_entangling_layer(4, c)


class TestBlock:
    def test_connectivity_cycles(self):
        block = build_block(4, 2, 3)
        # offsets per layer: c = (layer % C) + 1 -> [1, 2, 1]
        offsets = []
        for i in range(0, len(block.gates), 8):
            first_cnot = block.gates[i]
            offsets.append((first_cnot[2] - first_cnot[1]) % 4)
        assert offsets == [1, 2, 1]
        assert parameter_slot_count(block) == 12

    def test_zero_layers_empty(self):
        assert build_block(4, 1, 0).gates == []

    def test_q14_two_layers(self):
        assert parameter_slot_count(build_block(14, 1, 2)) == 28

    @pytest.mark.parametrize("connectivity, layers, message", [
        (1, -1, "num_layers must be >= 0"),
        (4, 2, "connectivity must satisfy"),
        (0, 1, "connectivity must satisfy"),
    ])
    def test_rejects_bad_block(self, connectivity, layers, message):
        with pytest.raises(ConfigurationError, match=message):
            build_block(4, connectivity, layers)


class TestAssemble:
    def test_reference_layout(self):
        spec = CircuitSpec(qubits=10, connectivity=1, main_layers=2,
                           reupload_layers=1, reupload_count=4)
        circuit = assemble_head_circuit(spec, 1)
        assert parameter_slot_count(circuit) == 60
        assert sum(1 for g in circuit if g[0] == CNOT) == 60
        assert sum(1 for g in circuit if g[0] == RY) == 60
        assert sum(1 for g in circuit if g[0] == DATA) == 50

    def test_no_reuploads(self):
        spec = CircuitSpec(qubits=4, main_layers=2, reupload_count=0, reupload_layers=1)
        circuit = assemble_head_circuit(spec, 1)
        assert sum(1 for g in circuit if g[0] == DATA) == 4
        assert circuit.gates[:4] == [(DATA, i, i) for i in range(4)]

    def test_encode_count_is_one_plus_r(self):
        for r in range(4):
            spec = CircuitSpec(qubits=3, reupload_count=r)
            circuit = assemble_head_circuit(spec, 1)
            assert sum(1 for g in circuit if g[0] == DATA) == 3 * (1 + r)

    def test_q14_parameter_total(self):
        spec = CircuitSpec(qubits=14, main_layers=2, reupload_count=4, reupload_layers=1)
        assert parameter_slot_count(assemble_head_circuit(spec, 1)) == 84

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            assemble_head_circuit(CircuitSpec(qubits=4, connectivity=4), 1)
        with pytest.raises(ConfigurationError, match="need at least 2 qubits, got 1"):
            assemble_head_circuit(CircuitSpec(qubits=1), 1)
        for field in ("main_layers", "reupload_layers", "reupload_count"):
            with pytest.raises(ConfigurationError, match="counts must be non-negative"):
                assemble_head_circuit(CircuitSpec(qubits=4, **{field: -1}), 1)


class TestCounts:
    def test_reference_counts(self):
        spec = CircuitSpec(qubits=10, main_layers=2, reupload_count=4, reupload_layers=1)
        assert count_parameters(spec) == 60
        assert gate_counts(spec) == (110, 60)

    def test_q12_parameters(self):
        spec = CircuitSpec(qubits=12, main_layers=2, reupload_count=4, reupload_layers=1)
        assert count_parameters(spec) == 72

    def test_degenerate_spec(self):
        spec = CircuitSpec(qubits=5, main_layers=0, reupload_count=0, reupload_layers=0)
        assert count_parameters(spec) == 0
        assert gate_counts(spec) == (5, 0)

    def test_counts_match_assembled_records(self):
        for q, m, r, n, c in [(4, 2, 4, 1, 1), (6, 3, 2, 2, 3), (5, 0, 3, 1, 2), (3, 1, 0, 2, 1)]:
            spec = CircuitSpec(qubits=q, connectivity=c, main_layers=m,
                               reupload_count=r, reupload_layers=n)
            circuit = assemble_head_circuit(spec, 1)
            assert count_parameters(spec) == parameter_slot_count(circuit)
            single, two = gate_counts(spec)
            n_ry = sum(1 for g in circuit if g[0] == RY)
            n_data = sum(1 for g in circuit if g[0] == DATA)
            n_cnot = sum(1 for g in circuit if g[0] == CNOT)
            assert single == n_ry + n_data
            assert two == n_cnot


class TestEncodingSteps:
    def test_single_round_indices(self):
        circuit = assemble_head_circuit(CircuitSpec(qubits=3, main_layers=0, reupload_count=0), 1)
        assert circuit.gates == [(DATA, 0, 0), (DATA, 1, 1), (DATA, 2, 2)]

    def test_stacked_rounds(self):
        circuit = assemble_head_circuit(CircuitSpec(qubits=2, main_layers=0, reupload_count=0), 2)
        assert circuit.gates == [
            (DATA, 0, 0), (DATA, 1, 1), (DATA, 0, 2), (DATA, 1, 3),
        ]

    def test_each_step_precedes_its_block(self):
        spec = CircuitSpec(qubits=2, main_layers=1, reupload_layers=1, reupload_count=1)
        step = [(DATA, 0, 0), (DATA, 1, 1), (DATA, 0, 2), (DATA, 1, 3)]
        assert assemble_head_circuit(spec, 2).gates == (
            step + build_block(2, 1, 1).gates + step + build_block(2, 1, 1, 2).gates
        )

    def test_bad_rounds(self):
        for rounds in (0, -1):
            with pytest.raises(ConfigurationError, match=f"rounds must be >= 1, got {rounds}"):
                assemble_head_circuit(CircuitSpec(qubits=2), rounds)


def test_slot_contiguity_enforced():
    with pytest.raises(ConfigurationError):
        parameter_slot_count(GateList(2, [(RY, 0, 0), (RY, 1, 2)]))

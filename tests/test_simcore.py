"""Statevector core: construction, gates, encodings, measurement."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qhead.errors import ConfigurationError, DataError, DegenerateInputError
from qhead.simcore import (
    StateVector,
    _cnot,
    _pauli,
    _ry,
    amplitude_encode,
    amplitude_encode_rows,
    angle_encode,
    apply_cnot,
    apply_pauli,
    apply_ry,
    probabilities,
    z_expectation,
    zero_state,
)

from oracles import dense_run, dense_z

SQRT_HALF = math.sqrt(0.5)


class TestZeroState:
    def test_one_qubit(self):
        np.testing.assert_array_equal(zero_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        np.testing.assert_array_equal(zero_state(2).amplitudes, [1, 0, 0, 0])

    def test_ten_qubits_norm(self):
        sv = zero_state(10)
        assert sv.amplitudes.shape == (1024,)
        assert abs(sv.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [0, -1, 25])
    def test_out_of_range(self, n):
        with pytest.raises(ConfigurationError):
            zero_state(n)


class TestApplyRy:
    def test_pi_flips(self):
        sv = apply_ry(zero_state(1), 0, math.pi)
        np.testing.assert_allclose(sv.amplitudes, [0, 1], atol=1e-15)

    def test_zero_is_identity(self):
        sv = apply_ry(zero_state(1), 0, 0.0)
        np.testing.assert_array_equal(sv.amplitudes, [1, 0])

    def test_half_pi(self):
        sv = apply_ry(zero_state(1), 0, math.pi / 2)
        np.testing.assert_allclose(sv.amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15)

    def test_acts_on_named_qubit(self):
        # qubit 1 of |00> -> |01>: index 1 in MSB-first ordering
        sv = apply_ry(zero_state(2), 1, math.pi)
        np.testing.assert_allclose(sv.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_bad_index(self):
        with pytest.raises(ConfigurationError):
            apply_ry(zero_state(2), 2, 0.1)


class TestApplyCnot:
    def test_control_on(self):
        sv = zero_state(2)
        apply_pauli(sv, 0, "X")  # |10>
        apply_cnot(sv, 0, 1)
        np.testing.assert_allclose(sv.amplitudes, [0, 0, 0, 1], atol=1e-15)  # |11>

    def test_control_off(self):
        sv = apply_cnot(zero_state(2), 0, 1)
        np.testing.assert_array_equal(sv.amplitudes, [1, 0, 0, 0])

    def test_involution(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        raw /= np.linalg.norm(raw)
        sv = StateVector(3, raw.copy())
        apply_cnot(apply_cnot(sv, 2, 0), 2, 0)
        np.testing.assert_allclose(sv.amplitudes, raw, atol=1e-15)

    def test_control_equals_target(self):
        with pytest.raises(ConfigurationError):
            apply_cnot(zero_state(2), 1, 1)

    def test_reversed_orientation_matches_dense(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        raw /= np.linalg.norm(raw)
        got = apply_cnot(StateVector(3, raw.copy()), 2, 0).amplitudes
        want = dense_run([("cnot", 2, 0)], 3, initial=raw)
        np.testing.assert_allclose(got, want, atol=1e-14)


class TestApplyPauli:
    def test_x_flips(self):
        sv = apply_pauli(zero_state(1), 0, "X")
        np.testing.assert_array_equal(sv.amplitudes, [0, 1])

    def test_z_eigenstate(self):
        sv = apply_pauli(zero_state(1), 0, "Z")
        np.testing.assert_array_equal(sv.amplitudes, [1, 0])

    def test_y_phase(self):
        sv = apply_pauli(zero_state(1), 0, "Y")
        np.testing.assert_allclose(sv.amplitudes, [0, 1j], atol=1e-15)

    def test_unknown_label(self):
        with pytest.raises(ConfigurationError):
            apply_pauli(zero_state(1), 0, "H")

    def test_real_y_drops_the_global_phase(self):
        # on real arrays Y applies XZ = -iY, which keeps the state real
        rng = np.random.default_rng(12)
        real = rng.standard_normal((3, 8))
        complex_ = real.astype(np.complex128)
        _pauli(real, 3, 1, "Y")
        _pauli(complex_, 3, 1, "Y")
        assert real.dtype == np.float64
        np.testing.assert_array_equal(real, (-1j * complex_).real)
        np.testing.assert_array_equal((-1j * complex_).imag, 0.0)

    @pytest.mark.parametrize("which", ["X", "Y", "Z"])
    def test_self_inverse(self, which):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        raw /= np.linalg.norm(raw)
        sv = StateVector(2, raw.copy())
        apply_pauli(apply_pauli(sv, 1, which), 1, which)
        np.testing.assert_allclose(sv.amplitudes, raw, atol=1e-15)


class TestAmplitudeEncode:
    def test_basis_vector(self):
        sv = amplitude_encode([1, 0, 0, 0], 2)
        np.testing.assert_array_equal(sv.amplitudes, [1, 0, 0, 0])

    def test_three_four(self):
        sv = amplitude_encode([3, 4], 1)
        np.testing.assert_allclose(sv.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_768_dim_padding(self):
        rng = np.random.default_rng(0)
        sv = amplitude_encode(rng.standard_normal(768), 10)
        assert sv.amplitudes.shape == (1024,)
        np.testing.assert_array_equal(sv.amplitudes[768:], np.zeros(256))
        assert abs(sv.norm() - 1.0) < 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            amplitude_encode(np.zeros(4), 2)

    def test_near_zero_above_threshold_normalizes(self):
        sv = amplitude_encode(np.array([1e-11, 0.0]), 1)
        assert abs(sv.norm() - 1.0) < 1e-10

    def test_oversized_rejected(self):
        with pytest.raises(ConfigurationError):
            amplitude_encode(np.ones(5), 2)
        with pytest.raises(ConfigurationError, match=r"non-empty 1-D vector, got shape \(2, 2\)"):
            amplitude_encode(np.ones((2, 2)), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="index 2"):
            amplitude_encode([0.5, 1.0, bad], 2)


class TestAmplitudeEncodeRows:
    def test_rows_equal_single_encodings_bit_for_bit(self):
        X = np.random.default_rng(1).standard_normal((6, 768)) * np.logspace(-3, 3, 6)[:, None]
        amps = amplitude_encode_rows(X, 10)
        assert amps.dtype == np.float64 and amps.shape == (6, 1024)
        for x, row in zip(X, amps):
            np.testing.assert_array_equal(row, amplitude_encode(x, 10).amplitudes.real)

    def test_errors_name_the_row(self):
        X = np.ones((3, 4))
        X[1, 2] = math.nan
        with pytest.raises(DataError, match="row 1 .*index 2"):
            amplitude_encode_rows(X, 2)
        with pytest.raises(DegenerateInputError, match="row 2"):
            amplitude_encode_rows(np.vstack([np.ones(4), np.ones(4), np.zeros(4)]), 2)
        with pytest.raises(ConfigurationError):
            amplitude_encode_rows(np.ones((2, 5)), 2)
        with pytest.raises(ConfigurationError):
            amplitude_encode_rows(np.ones(4), 2)


class TestAngleEncode:
    def test_zero_angles_identity(self):
        sv = angle_encode(zero_state(3), [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(sv.amplitudes, zero_state(3).amplitudes)

    def test_pi_flips(self):
        sv = angle_encode(zero_state(1), [math.pi])
        np.testing.assert_allclose(sv.amplitudes, [0, 1], atol=1e-15)

    def test_uniform_two_qubit(self):
        sv = angle_encode(zero_state(2), [math.pi / 2, math.pi / 2])
        np.testing.assert_allclose(sv.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            angle_encode(zero_state(2), [0.1])


class TestZExpectation:
    def test_zero_state(self):
        assert z_expectation(zero_state(1), 0) == 1.0

    def test_cosine_law(self):
        rng = np.random.default_rng(42)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=100):
            got = z_expectation(apply_ry(zero_state(1), 0, theta), 0)
            assert abs(got - math.cos(theta)) < 1e-10

    def test_uniform_state_is_zero(self):
        sv = angle_encode(zero_state(2), [math.pi / 2, math.pi / 2])
        assert abs(z_expectation(sv, 0)) < 1e-12


class TestProbabilities:
    def test_zero_state(self):
        np.testing.assert_array_equal(probabilities(zero_state(1)), [1, 0])

    def test_superposition(self):
        sv = StateVector(1, np.array([SQRT_HALF, SQRT_HALF], dtype=complex))
        np.testing.assert_allclose(probabilities(sv), [0.5, 0.5], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        raw /= np.linalg.norm(raw)
        assert abs(probabilities(StateVector(4, raw)).sum() - 1.0) < 1e-10


def _random_gate_sequence(rng, n, length):
    ops = []
    for _ in range(length):
        kind = rng.integers(3)
        if kind == 0:
            ops.append(("ry", int(rng.integers(n)), float(rng.uniform(-math.pi, math.pi))))
        elif kind == 1 and n > 1:
            c = int(rng.integers(n))
            t = int(rng.integers(n - 1))
            ops.append(("cnot", c, t if t < c else t + 1))
        else:
            ops.append(("pauli", int(rng.integers(n)), "XYZ"[rng.integers(3)]))
    return ops


def _apply_ops(sv, ops):
    for op in ops:
        if op[0] == "ry":
            apply_ry(sv, op[1], op[2])
        elif op[0] == "cnot":
            apply_cnot(sv, op[1], op[2])
        else:
            apply_pauli(sv, op[1], op[2])
    return sv


class TestInvariants:
    def test_norm_preserved_over_random_sequences(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            sv = zero_state(n)
            _apply_ops(sv, _random_gate_sequence(rng, n, int(rng.integers(5, 25))))
            assert abs(sv.norm() - 1.0) < 1e-10

    def test_gate_then_inverse_recovers_state(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            sv = zero_state(n)
            _apply_ops(sv, _random_gate_sequence(rng, n, 10))
            before = sv.amplitudes.copy()
            theta = float(rng.uniform(-math.pi, math.pi))
            q = int(rng.integers(n))
            apply_ry(apply_ry(sv, q, theta), q, -theta)
            np.testing.assert_allclose(sv.amplitudes, before, atol=1e-10)

    def test_random_circuits_match_dense_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            ops = _random_gate_sequence(rng, n, 12)
            sv = _apply_ops(zero_state(n), ops)
            records = []
            params = []
            for op in ops:
                if op[0] == "ry":
                    records.append(("ry", op[1], len(params)))
                    params.append(op[2])
                else:
                    records.append(op)
            want = dense_run(records, n, params=np.asarray(params))
            np.testing.assert_allclose(sv.amplitudes, want, atol=1e-12)
            # spot-check expectations as well
            for q in range(n):
                assert abs(z_expectation(sv, q) - dense_z(want, q, n)) < 1e-12


class TestTrailingRowFactor:
    """The kernels on R rows stored amplitude-major, as a flat (2^Q * R,) array."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("rows", [1, 2, 3, 16])
    @pytest.mark.parametrize("qubits", [1, 2, 3, 6])
    def test_each_row_has_the_bits_of_the_leading_layout(self, qubits, rows, dtype):
        rng = np.random.default_rng(40 + qubits + rows)
        lead = rng.standard_normal((rows, 1 << qubits)).astype(dtype)
        flat = lead.T.copy().reshape(-1)
        assert flat.size >> qubits == rows
        per_row = rng.uniform(-math.pi, math.pi, rows)
        for q in range(qubits):
            for kernel, args in ((_ry, (q, per_row)), (_ry, (q, 0.7)), (_pauli, (q, "X")),
                                 (_pauli, (q, "Y")), (_pauli, (q, "Z"))):
                kernel(lead, qubits, *args)
                kernel(flat, qubits, *args)
            if qubits > 1:
                other = (q + 1 + int(rng.integers(qubits - 1))) % qubits
                for control, target in ((q, other), (other, q)):
                    _cnot(lead, qubits, control, target)
                    _cnot(flat, qubits, control, target)
            np.testing.assert_array_equal(flat.reshape(1 << qubits, rows).T, lead)

"""Gate-noise trajectories, shot sampling, and their statistical references."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qhead.ansatz import CNOT, DATA, ENCODE, PAULI, RY, CircuitSpec, GateList, assemble_head_circuit, expand_encoding, gate_counts, parameter_slot_count
from qhead.errors import ConfigurationError
from qhead.grad import evaluate_expectation, lift_data_slots, trajectory_expectation
from qhead.noise import (
    NoiseModel,
    depolarizing_reference_expectation,
    gaussian_shot_estimate,
    multinomial_oracle,
    multinomial_z_estimate,
    paired_shot_estimates,
    sample_pauli_insertions,
    shot_sample_expectation,
)
from qhead.seeding import TRAJECTORY, stream

from oracles import dense_run, dense_z


class TestNoiseModel:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            NoiseModel(p1q=-0.1)
        with pytest.raises(ConfigurationError):
            NoiseModel(p2q=1.5)
        with pytest.raises(ConfigurationError):
            NoiseModel(shots=0)


class TestSamplePauliInsertions:
    def test_zero_rates_unchanged(self):
        circuit = GateList(2, [(RY, 0, 0), (CNOT, 0, 1)])
        out = sample_pauli_insertions(circuit, NoiseModel(0.0, 0.0), stream(0, 1))
        assert out is circuit

    def test_rejects_unexpanded_encoding(self):
        circuit = GateList(2, [("encode", 0)])
        with pytest.raises(ConfigurationError):
            sample_pauli_insertions(circuit, NoiseModel(p1q=0.5), stream(0, 1))

    def test_rate_one_inserts_after_every_gate(self):
        circuit = GateList(2, [(RY, 0, 0), (DATA, 1, 0), (CNOT, 0, 1)])
        out = sample_pauli_insertions(circuit, NoiseModel(1.0, 1.0), stream(3, 1))
        inserted = [g for g in out.gates if g[0] == PAULI]
        assert len(inserted) >= 3  # one after each 1q gate, 1-2 after the CNOT

    def test_insertion_rate_matches_expectation(self):
        spec = CircuitSpec(qubits=4, main_layers=2, reupload_count=2, reupload_layers=1)
        circuit = expand_encoding(assemble_head_circuit(spec))
        single, two = gate_counts(spec)
        model = NoiseModel(p1q=0.05, p2q=0.15)
        trials = 3000
        total = 0
        for t in range(trials):
            out = sample_pauli_insertions(circuit, model, stream(11, TRAJECTORY, t))
            # a 2q insertion contributes one or two Pauli records; count firings
            # via record positions instead: every record not in the clean list
            total += sum(1 for g in out.gates if g[0] == PAULI)
        # E[#pauli records] = p1q*SQ + p2q*TQ*E[#non-identity labels per pair]
        # label pairs uniform over 15: E[non-I labels] = (2*9 + 1*6)/15 = 1.6
        expected = (model.p1q * single + model.p2q * two * 1.6) * trials
        sigma = math.sqrt(expected)  # Poisson-ish scale
        assert abs(total - expected) < 5 * sigma

    def test_firing_rates_match_expectation_per_kind(self):
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1, reupload_layers=1)
        circuit = expand_encoding(assemble_head_circuit(spec))
        single, two = gate_counts(spec)
        trials = 4000

        # 1q-only noise: every inserted record is one 1q firing
        model = NoiseModel(p1q=0.1, p2q=0.0)
        fired = sum(
            sum(1 for g in sample_pauli_insertions(circuit, model, stream(13, TRAJECTORY, t)) if g[0] == PAULI)
            for t in range(trials)
        )
        expected = model.p1q * single * trials
        assert abs(fired - expected) < 5 * math.sqrt(expected)

        # 2q-only noise: a firing is a CNOT immediately followed by a Pauli
        model = NoiseModel(p1q=0.0, p2q=0.2)
        fired = 0
        for t in range(trials):
            gates = sample_pauli_insertions(circuit, model, stream(14, TRAJECTORY, t)).gates
            fired += sum(
                1
                for j, g in enumerate(gates[:-1])
                if g[0] == CNOT and gates[j + 1][0] == PAULI
            )
        expected = model.p2q * two * trials
        assert abs(fired - expected) < 5 * math.sqrt(expected)

    def test_deterministic_per_stream(self):
        circuit = GateList(2, [(RY, 0, 0), (CNOT, 0, 1), (RY, 1, 1)])
        model = NoiseModel(0.4, 0.4)
        a = sample_pauli_insertions(circuit, model, stream(9, TRAJECTORY, 0))
        b = sample_pauli_insertions(circuit, model, stream(9, TRAJECTORY, 0))
        assert a.gates == b.gates


class TestDepolarizingReference:
    def test_noiseless_single_ry(self):
        circuit = GateList(1, [(RY, 0, 0)])
        v = depolarizing_reference_expectation(circuit, [0.8])
        assert v == pytest.approx(math.cos(0.8), abs=1e-12)

    def test_contraction_factor_single_gate(self):
        # one RY followed by depolarizing p: <Z> = (1 - 4p/3) cos(theta)
        circuit = GateList(1, [(RY, 0, 0)])
        for p in [0.05, 0.3, 0.75]:
            v = depolarizing_reference_expectation(circuit, [1.1], model=NoiseModel(p1q=p))
            assert v == pytest.approx((1 - 4 * p / 3) * math.cos(1.1), abs=1e-12)

    def test_two_rotations_closed_form(self):
        # the channel contracts the whole Bloch vector, so the coherence the
        # first rotation makes is contracted before the second turns it into Z
        a, b, p = 0.7, 0.9, 0.3
        circuit = GateList(1, [(RY, 0, 0), (RY, 0, 1)])
        v = depolarizing_reference_expectation(circuit, [a, b], model=NoiseModel(p1q=p))
        assert v == pytest.approx((1 - 4 * p / 3) ** 2 * math.cos(a + b), abs=1e-12)

    def test_trajectory_average_discriminates_convention(self):
        # at p = 0.25 the (1 - 4p/3) and (1 - p) conventions differ by ~0.08 cos
        circuit = GateList(1, [(RY, 0, 0)])
        theta, p = 0.6, 0.25
        model = NoiseModel(p1q=p)
        trials = 20000
        vals = np.array([
            trajectory_expectation(circuit, [theta], None, model, stream(21, TRAJECTORY, t))
            for t in range(trials)
        ])
        mean = vals.mean()
        stderr = vals.std(ddof=1) / math.sqrt(trials)
        ours = (1 - 4 * p / 3) * math.cos(theta)
        other = (1 - p) * math.cos(theta)
        assert abs(mean - ours) < 4 * stderr
        assert abs(mean - other) > 10 * stderr

    @pytest.mark.parametrize("circuit, params, measured", [
        (GateList(2, [(RY, 0, 0), (CNOT, 0, 1), (RY, 1, 1)]), [0.9, -0.4], 1),
        (GateList(3, [(RY, 0, 0), (CNOT, 0, 1), (RY, 1, 1), (CNOT, 1, 2), (RY, 2, 2),
                      (CNOT, 2, 0)]), [0.9, -0.4, 1.3], 0),
    ], ids=["two_qubit_chain", "three_qubit_ring"])
    def test_trajectory_average_matches(self, circuit, params, measured):
        model = NoiseModel(p1q=0.1, p2q=0.2)
        want = depolarizing_reference_expectation(circuit, params, model=model, measured=measured)
        trials = 20000
        vals = np.array([
            trajectory_expectation(circuit, params, None, model, stream(33, TRAJECTORY, t),
                                   measured=measured)
            for t in range(trials)
        ])
        stderr = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - want) < 4 * stderr

    def test_long_range_cnot_closed_form(self):
        # 8 of the 15 two-qubit strings hold X or Y on the control, each
        # flipping Z_0: the CNOT's channel scales <Z_0> by 1 - 16 p2q / 15;
        # on 3 qubits, and across the paper's 10-qubit register
        theta, p1q, p2q = 1.1, 0.07, 0.3
        want = (1 - 4 * p1q / 3) * (1 - 16 * p2q / 15) * math.cos(theta)
        for n in (3, 10):
            circuit = GateList(n, [(RY, 0, 0), (CNOT, 0, n - 1)])
            v = depolarizing_reference_expectation(circuit, [theta], NoiseModel(p1q=p1q, p2q=p2q))
            assert v == pytest.approx(want, abs=1e-12), n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_noiseless_matches_the_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        gates = [(RY, q, q) for q in range(n)] + [(PAULI, n - 1, "Y")]
        gates += [(CNOT, q, q - 1) for q in range(n - 1, 0, -1)] + [(CNOT, 0, n - 1)] if n > 1 else []
        gates += [(RY, q, n + q) for q in range(n)] + [(PAULI, 0, "Y"), (PAULI, n // 2, "X")]
        params = rng.uniform(-math.pi, math.pi, 2 * n)
        psi = dense_run(gates, n, params)
        for measured in range(n):
            v = depolarizing_reference_expectation(GateList(n, gates), params, measured=measured)
            assert abs(v - dense_z(psi, measured, n)) <= 1e-12

    def test_noiseless_head_at_the_paper_width_matches_the_statevector(self):
        """The lifted Q = 10 head circuit (M = 2, R = 4, N = 1) without noise:
        the density matrix's <Z_0> equals the statevector route's."""
        spec = CircuitSpec(qubits=10, main_layers=2, reupload_layers=1, reupload_count=4)
        circuit = lift_data_slots(expand_encoding(assemble_head_circuit(spec), 1))[0]
        params = np.random.default_rng(10).uniform(-math.pi, math.pi,
                                                   parameter_slot_count(circuit))
        want = evaluate_expectation(circuit, params)
        assert abs(depolarizing_reference_expectation(circuit, params) - want) <= 1e-12

    def test_oracle_scope_limit(self):
        with pytest.raises(ConfigurationError, match="1 to 10 qubits, got 11"):
            depolarizing_reference_expectation(GateList(11, [(RY, 0, 0)]), [0.1])

    @pytest.mark.parametrize("n, record, measured", [
        (2, (RY, 1, 0), 5),
        (2, (RY, 3, 0), 0),
        (1, (RY, 0, 0), -1),
    ], ids=["measured_5_of_2", "ry_on_3_of_2", "measured_minus_1_of_1"])
    def test_qubit_outside_the_register_rejected(self, n, record, measured):
        with pytest.raises(ConfigurationError, match="outside the"):
            depolarizing_reference_expectation(GateList(n, [record]), [0.8], measured=measured)

    @pytest.mark.parametrize("record", [(ENCODE, 0), (DATA, 1, 0), (PAULI, 1, "X", 0)])
    def test_encoding_records_rejected(self, record):
        circuit = GateList(2, [(RY, 0, 0), record, (CNOT, 0, 1)])
        with pytest.raises(ConfigurationError, match="unknown gate record"):
            depolarizing_reference_expectation(circuit, [0.4], model=NoiseModel(p1q=0.1))


class TestShotSampling:
    def test_exact_at_unit_poles(self):
        rng = stream(0, 5)
        for z in (1.0, -1.0):
            assert shot_sample_expectation(z, 128, rng) == z

    def test_infinite_shots_identity(self):
        assert shot_sample_expectation(0.37, None, stream(0, 5)) == 0.37

    def test_std_at_zero(self):
        rng = stream(100, 5)
        shots = 8192
        draws = gaussian_shot_estimate(np.zeros(100_000), shots, rng.standard_normal(100_000))
        want = 1 / math.sqrt(shots)
        assert abs(draws.std(ddof=1) - want) / want < 0.02

    def test_clamped_to_physical_range(self):
        rng = stream(4, 5)
        for z in (-0.999, -0.2, 0.0, 0.7, 0.995):
            ests = gaussian_shot_estimate(np.full(2000, z), 4, rng.standard_normal(2000))
            assert ests.min() >= -1.0 and ests.max() <= 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            shot_sample_expectation(1.2, 100, stream(0, 5))

    @pytest.mark.parametrize("shots", [0, -5])
    def test_nonpositive_shots_rejected(self, shots):
        with pytest.raises(ConfigurationError, match=f"shots must be >= 1, got {shots}"):
            paired_shot_estimates(np.zeros(3), np.zeros(3), shots, stream(0, 5))
        with pytest.raises(ConfigurationError, match=f"shots must be >= 1, got {shots}"):
            shot_sample_expectation(0.3, shots, stream(0, 5))

    @pytest.mark.parametrize("shots", [100, None])
    def test_nan_rejected(self, shots):
        # abs(nan) > 1 is false, so a plain range test lets NaN through
        with pytest.raises(ConfigurationError, match="got nan"):
            shot_sample_expectation(float("nan"), shots, stream(0, 5))


class TestMultinomialOracle:
    def test_deterministic_distribution(self):
        counts = multinomial_oracle([1.0, 0.0], 500, stream(0, 6))
        np.testing.assert_array_equal(counts, [500, 0])

    def test_binomial_moments(self):
        rng = stream(8, 6)
        n = 8192
        reps = 3000
        first = np.array([multinomial_oracle([0.5, 0.5], n, rng)[0] for _ in range(reps)])
        assert abs(first.mean() - n / 2) < 5 * math.sqrt(n / 4 / reps) * math.sqrt(reps)
        assert abs(first.mean() - 4096) < 3 * math.sqrt(2048 / reps) * math.sqrt(reps)
        assert abs(first.var(ddof=1) - 2048) / 2048 < 0.1

    def test_invalid_probabilities(self):
        with pytest.raises(ConfigurationError):
            multinomial_oracle([0.7, 0.7], 10, stream(0, 6))
        with pytest.raises(ConfigurationError):
            multinomial_oracle([1.2, -0.2], 10, stream(0, 6))

    def test_gaussian_sampler_matches_multinomial_moments(self):
        shots = 8192
        draws = 100_000
        for z in (0.0, 0.5):
            rng_g = stream(50, 5)
            rng_m = stream(50, 6)
            gauss = gaussian_shot_estimate(
                np.full(draws, z), shots, rng_g.standard_normal(draws)
            )
            multi = np.array([multinomial_z_estimate(z, shots, rng_m) for _ in range(draws // 10)])
            sigma = math.sqrt((1 - z * z) / shots)
            assert abs(gauss.mean() - multi.mean()) < 0.03 * max(abs(z), sigma)
            assert abs(gauss.var(ddof=1) / multi.var(ddof=1) - 1.0) < 0.03


class TestZeroNoiseEquivalence:
    def test_trajectory_path_identical_to_noiseless(self):
        rng = np.random.default_rng(3)
        spec = CircuitSpec(qubits=4, main_layers=2, reupload_count=2)
        from qhead.ansatz import count_parameters
        from qhead.grad import evaluate_expectation

        circuit = assemble_head_circuit(spec)
        params = rng.uniform(-1, 1, count_parameters(spec))
        latent = rng.uniform(-1, 1, 4)
        a = evaluate_expectation(circuit, params, latent)
        b = trajectory_expectation(circuit, params, latent, NoiseModel(0, 0, None), None)
        assert a == b  # bit-identical

"""Expectation evaluation and the three gradient routes."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qhead import grad as grad_mod
from qhead.ansatz import (
    CNOT,
    DATA,
    PAULI,
    RY,
    CircuitSpec,
    GateList,
    assemble_head_circuit,
    count_parameters,
)
from qhead.errors import ConfigurationError
from qhead.grad import (
    _batch_expectations,
    _block_matrices,
    _blocks,
    _shift_rows,
    adjoint_gradient,
    adjoint_observable_gradients,
    block_adjoint_gradients,
    evaluate_expectation,
    finite_difference_oracle,
    lift_data_slots,
    parameter_shift_gradient,
    run_gates,
    trajectory_expectation,
)
from qhead.head import EncoderConfig, QuantumEncoder, _merge_trajectories, _plan_pqc, encoder_circuit
from qhead.noise import NoiseModel, depolarizing_reference_expectation, sample_pauli_insertions
from qhead.simcore import _z_expectation, amplitude_encode, amplitude_encode_rows

from oracles import dense_run, dense_z
from reference import encoder_backward, parameter_shift_jacobian, per_gate_expectations


def _single_ry():
    return GateList(1, [(RY, 0, 0)])


def _random_spec(rng, max_qubits=6):
    q = int(rng.integers(2, max_qubits + 1))
    return CircuitSpec(
        qubits=q,
        connectivity=int(rng.integers(1, q)),
        main_layers=int(rng.integers(0, 3)),
        reupload_layers=int(rng.integers(0, 3)),
        reupload_count=int(rng.integers(0, 3)),
    )


def _random_inputs(rng, spec):
    from qhead.ansatz import count_parameters

    params = rng.uniform(-math.pi, math.pi, count_parameters(spec))
    latent = rng.uniform(-1, 1, spec.qubits)
    return params, latent


class TestEvaluateExpectation:
    def test_all_zero_inputs(self):
        spec = CircuitSpec(qubits=4, main_layers=2, reupload_count=2)
        circuit = assemble_head_circuit(spec, 1)
        from qhead.ansatz import count_parameters

        value = evaluate_expectation(circuit, np.zeros(count_parameters(spec)), np.zeros(4))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_single_ry_cosine(self):
        for theta in [-2.0, -0.3, 0.0, 0.7, 2.9]:
            assert evaluate_expectation(_single_ry(), [theta]) == pytest.approx(
                math.cos(theta), abs=1e-12
            )

    def test_range_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = _random_spec(rng)
            params, latent = _random_inputs(rng, spec)
            v = evaluate_expectation(assemble_head_circuit(spec, 1), params, latent)
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12

    def test_param_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            evaluate_expectation(_single_ry(), [0.1, 0.2])

    def test_latent_length_mismatch(self):
        spec = CircuitSpec(qubits=4)
        circuit = assemble_head_circuit(spec, 1)
        from qhead.ansatz import count_parameters

        with pytest.raises(ConfigurationError):
            evaluate_expectation(circuit, np.zeros(count_parameters(spec)), np.zeros(3))

    def test_circuit_fixes_its_encoding_passes(self):
        """A latent longer than the circuit's data records read is accepted, and
        only its first values are read."""
        spec = CircuitSpec(qubits=4)
        params, latent = _random_inputs(np.random.default_rng(19), spec)
        circuit = assemble_head_circuit(spec, 1)
        longer = np.concatenate([latent, [0.7, -0.2, 0.5, 0.9]])
        assert evaluate_expectation(circuit, params, longer) == evaluate_expectation(
            circuit, params, latent)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            spec = _random_spec(rng, max_qubits=4)
            params, latent = _random_inputs(rng, spec)
            circuit = assemble_head_circuit(spec, 1)
            got = evaluate_expectation(circuit, params, latent)
            psi = dense_run(circuit.gates, spec.qubits, params, latent)
            assert got == pytest.approx(dense_z(psi, 0, spec.qubits), abs=1e-12)


class TestParameterShift:
    def test_single_ry_is_minus_sine(self):
        for theta in [-1.2, 0.0, 0.4, 2.2]:
            grad = parameter_shift_gradient(_single_ry(), [theta])
            assert grad[0] == pytest.approx(-math.sin(theta), abs=1e-12)

    def test_stationary_point(self):
        assert parameter_shift_gradient(_single_ry(), [0.0])[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_differences_on_random_specs(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            spec = _random_spec(rng, max_qubits=4)
            params, latent = _random_inputs(rng, spec)
            circuit = assemble_head_circuit(spec, 1)
            shift = parameter_shift_gradient(circuit, params, latent)
            fd = finite_difference_oracle(circuit, params, latent, h=1e-4)
            assert np.max(np.abs(shift - fd)) < 1e-6 if shift.size else True

    def test_invariant_to_shift_free_h(self):
        # the shift rule is exact; re-evaluating with another h changes nothing
        theta = [0.9]
        a = parameter_shift_gradient(_single_ry(), theta)
        b = finite_difference_oracle(_single_ry(), theta, h=0.3)
        c = finite_difference_oracle(_single_ry(), theta, h=1e-5)
        assert abs(a[0] + math.sin(0.9)) < 1e-12
        assert abs(b[0] + math.sin(0.9)) > 1e-3  # coarse FD is visibly off
        assert abs(c[0] + math.sin(0.9)) < 1e-8

    def test_zero_parameter_circuit_shapes(self):
        # no parameter, so no shifted row runs and the shifted values are empty
        circuit = GateList(3, [(DATA, 0, 0), (DATA, 1, 1), (DATA, 2, 2), (CNOT, 0, 1), (DATA, 2, 1)])
        latent = [0.3, -0.4, 1.1]
        assert parameter_shift_gradient(circuit, [], latent, measured=1).shape == (0,)
        assert finite_difference_oracle(circuit, [], latent, measured=2).shape == (0,)
        assert parameter_shift_jacobian(circuit, [], latent).shape == (3, 0)


class TestFiniteDifferenceOracle:
    def test_cosine_derivative(self):
        grad = finite_difference_oracle(_single_ry(), [1.1], h=1e-4)
        assert grad[0] == pytest.approx(-math.sin(1.1), abs=1e-6)

    def test_second_order_convergence(self):
        theta = 0.8
        errs = []
        for h in [2e-2, 1e-2, 5e-3]:
            fd = finite_difference_oracle(_single_ry(), [theta], h=h)[0]
            errs.append(abs(fd + math.sin(theta)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_h_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            finite_difference_oracle(_single_ry(), [0.1], h=0.0)


class TestAdjoint:
    def test_agrees_with_shift_on_random_circuits(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            spec = _random_spec(rng, max_qubits=5)
            params, latent = _random_inputs(rng, spec)
            circuit = assemble_head_circuit(spec, 1)
            adj = adjoint_gradient(circuit, params, latent)
            shift = parameter_shift_gradient(circuit, params, latent)
            assert adj.shape == shift.shape
            if adj.size:
                assert np.max(np.abs(adj - shift)) < 1e-8

    def test_zero_parameter_circuit(self):
        circuit = GateList(2, [(DATA, 0, 0), (DATA, 1, 1)])
        grad = adjoint_gradient(circuit, [], latent=[0.3, 0.4])
        assert grad.shape == (0,)

    def test_gradient_length(self):
        spec = CircuitSpec(qubits=3, main_layers=2, reupload_count=1)
        circuit = assemble_head_circuit(spec, 1)
        from qhead.ansatz import count_parameters

        params = np.zeros(count_parameters(spec))
        assert adjoint_gradient(circuit, params, np.zeros(3)).shape == (params.size,)

    def test_latent_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=2, reupload_layers=1)
        circuit = assemble_head_circuit(spec, 1)
        from qhead.ansatz import count_parameters

        params = rng.uniform(-math.pi, math.pi, count_parameters(spec))
        latent = rng.uniform(-1, 1, 3)
        final = run_gates(np.eye(8)[0], circuit, params, latent)
        _, (glat,) = adjoint_observable_gradients(circuit, params, latent, np.eye(3)[0], final)
        h = 1e-5
        for k in range(3):
            lp, lm = latent.copy(), latent.copy()
            lp[k] += h
            lm[k] -= h
            fd = (
                evaluate_expectation(circuit, params, lp)
                - evaluate_expectation(circuit, params, lm)
            ) / (2 * h)
            assert glat[k] == pytest.approx(fd, abs=1e-6)

    def test_weighted_observable_and_initial_state(self):
        rng = np.random.default_rng(53)
        n = 3
        circuit = GateList(n, [(RY, 0, 0), ("cnot", 0, 1), (RY, 1, 1), ("cnot", 1, 2), (RY, 2, 2)])
        params = rng.uniform(-math.pi, math.pi, 3)
        x = rng.standard_normal(8)
        initial = amplitude_encode(x, n).amplitudes
        weights = rng.standard_normal(n)

        def weighted_value(p):
            amps = initial.copy()
            run_gates(amps, circuit, p, None)
            from qhead.simcore import _z_expectation

            return sum(weights[j] * float(_z_expectation(amps, n, j)) for j in range(n))

        final = run_gates(initial.copy(), circuit, params, None)
        (gp,), _ = adjoint_observable_gradients(circuit, params, None, weights, final)
        h = 1e-5
        for j in range(3):
            pp, pm = params.copy(), params.copy()
            pp[j] += h
            pm[j] -= h
            fd = (weighted_value(pp) - weighted_value(pm)) / (2 * h)
            assert gp[j] == pytest.approx(fd, abs=1e-6)


class TestBatchedAdjoint:
    """Rows with their own angles, latents, observable weights and start states."""

    N = 3
    # every data record reads its own latent entry, so the shift rule is
    # exact for latents too; Paulis X, Y and Z all appear between rotations
    GATES = [
        (RY, 0, 0), (DATA, 1, 0), (CNOT, 0, 1), (PAULI, 2, "X"), (RY, 2, 1),
        (PAULI, 0, "Y"), (DATA, 0, 1), (CNOT, 1, 2), (PAULI, 1, "Z"), (RY, 1, 2),
        (PAULI, 2, "Y"), (CNOT, 2, 0), (DATA, 2, 2), (RY, 0, 3),
    ]

    def _rows(self, seed, rows=4):
        rng = np.random.default_rng(seed)
        params = rng.uniform(-math.pi, math.pi, (rows, 4))
        latent = rng.uniform(-1, 1, (rows, 3))
        weights = rng.standard_normal((rows, self.N))
        initial = amplitude_encode_rows(rng.standard_normal((rows, 8)), self.N)
        return params, latent, weights, initial

    def _dense_value(self, params, latent, weights, initial):
        psi = dense_run(self.GATES, self.N, params=params, latent=latent, initial=initial)
        return sum(weights[j] * dense_z(psi, j, self.N) for j in range(self.N))

    def _dense_shift(self, values, other, value_fn):
        out = np.zeros(values.size)
        for j in range(values.size):
            up, down = values.copy(), values.copy()
            up[j] += math.pi / 2
            down[j] -= math.pi / 2
            out[j] = (value_fn(up, other) - value_fn(down, other)) / 2.0
        return out

    @pytest.mark.parametrize("from_zero", [False, True])
    def test_per_row_inputs_match_dense_oracle_and_jacobian(self, from_zero):
        circuit = GateList(self.N, self.GATES)
        params, latent, weights, initial = self._rows(61)
        if from_zero:
            initial[:] = 0.0
            initial[:, 0] = 1.0
        final = run_gates(initial.copy(), circuit, params, latent)
        gp, gl = adjoint_observable_gradients(circuit, params, latent, weights, final)
        assert gp.shape == params.shape and gl.shape == latent.shape
        for b in range(len(params)):
            def by_params(p, lat, b=b):
                return self._dense_value(p, lat, weights[b], initial[b])

            def by_latent(lat, p, b=b):
                return self._dense_value(p, lat, weights[b], initial[b])

            np.testing.assert_allclose(gp[b], self._dense_shift(params[b], latent[b], by_params),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(gl[b], self._dense_shift(latent[b], params[b], by_latent),
                                       rtol=0, atol=1e-12)
            jac = parameter_shift_jacobian(circuit, params[b], latent[b], initial=initial[b])
            np.testing.assert_allclose(gp[b], jac.T @ weights[b], rtol=0, atol=1e-12)

    def test_single_row_calls_and_final_states_agree(self):
        circuit = GateList(self.N, self.GATES)
        params, latent, weights, initial = self._rows(62)
        shared = params[0]
        final = initial.copy()
        run_gates(final, circuit, shared, latent)
        kept = final.copy()
        gp, gl = adjoint_observable_gradients(circuit, shared, latent, weights, final)
        np.testing.assert_array_equal(final, kept)
        for b in range(len(latent)):
            one_final = run_gates(initial[b].astype(np.complex128), circuit, shared, latent[b])
            (one_p,), (one_l,) = adjoint_observable_gradients(
                circuit, shared, latent[b], weights[b], one_final
            )
            assert one_p.shape == shared.shape and one_l.shape == latent[b].shape
            np.testing.assert_allclose(one_p, gp[b], rtol=0, atol=1e-12)
            np.testing.assert_allclose(one_l, gl[b], rtol=0, atol=1e-12)

    def test_row_counts_must_agree(self):
        circuit = GateList(self.N, self.GATES)
        params, latent, weights, final = self._rows(63)
        with pytest.raises(ConfigurationError, match="row axes"):
            adjoint_observable_gradients(circuit, params, latent[:2], weights, final)
        with pytest.raises(ConfigurationError, match="z_weights"):
            adjoint_observable_gradients(circuit, params, latent, weights[:, :2], final)

    @pytest.mark.parametrize("shape, message", [
        ((4, 4), r"final must have shape \(8,\) or \(4, 8\), got \(4, 4\)"),
        ((3, 8), r"row axes disagree in length: .*'final': 3"),
    ], ids=["width", "rows"])
    def test_final_states_must_match_the_register_and_the_rows(self, shape, message):
        circuit = GateList(self.N, self.GATES)
        params, latent, weights, _ = self._rows(64)
        with pytest.raises(ConfigurationError, match=message):
            adjoint_observable_gradients(circuit, params, latent, weights, np.zeros(shape))


def test_row_tagged_pauli_records_act_on_their_row_only():
    """B trajectories merged into one list, each Pauli record tagged with its
    row, run and sweep as one array with the bits of each trajectory alone."""
    plan = _plan_pqc(CircuitSpec(qubits=3, main_layers=1, reupload_count=1), 6)
    lifted_circuit = lift_data_slots(plan.circuit)[0]
    lifted = lifted_circuit.gates
    first_ry = next(i for i, g in enumerate(lifted) if g[0] == RY)
    first_cnot = next(i for i, g in enumerate(lifted) if g[0] == CNOT)
    control, target = lifted[first_cnot][1:]

    def inserted(after):
        return GateList(3, [r for i, g in enumerate(lifted) for r in (g, *after.get(i, ()))])

    runs = [
        lifted_circuit,
        inserted({first_ry: [(PAULI, lifted[first_ry][1], "Y")]}),
        inserted({first_cnot: [(PAULI, control, "X"), (PAULI, target, "Z")]}),
        sample_pauli_insertions(lifted_circuit, NoiseModel(p1q=0.3, p2q=0.3), np.random.default_rng(5)),
        inserted({0: [(PAULI, 0, "Z")], len(lifted) - 1: [(PAULI, 0, "Y"), (PAULI, 2, "X")]}),
    ]
    merged = _merge_trajectories(lifted_circuit, runs)
    tags = [g[3] for g in merged.gates if g[0] == PAULI]
    assert len(tags) == sum(len(r) - len(lifted) for r in runs)
    assert sorted(set(tags)) == [1, 2, 3, 4]
    rng = np.random.default_rng(71)
    ext = rng.uniform(-math.pi, math.pi, (len(runs), plan.n_params + plan.occurrences.size))
    weights = rng.standard_normal((len(runs), 3))
    final = run_gates(np.repeat(np.eye(1, 8), len(runs), axis=0), merged, ext, None)
    gp, gl = adjoint_observable_gradients(merged, ext, None, weights, final)
    assert gl.shape == (len(runs), 0)
    for b, run in enumerate(runs):
        alone = run_gates(np.eye(1, 8), run, ext[b : b + 1], None)
        np.testing.assert_array_equal(final[b], alone[0])
        (one,), _ = adjoint_observable_gradients(run, ext[b : b + 1], None, weights[b : b + 1], alone)
        np.testing.assert_array_equal(gp[b], one)


def test_record_before_a_trajectorys_first_gate_stays_before_it():
    merged = _merge_trajectories(GateList(1, [(RY, 0, 0)]),
                                 [GateList(1, [(PAULI, 0, "X"), (RY, 0, 0)])])
    assert merged.gates == [(PAULI, 0, "X", 0), (RY, 0, 0)]


class TestLiftDataSlots:
    def test_occurrence_bookkeeping(self):
        circuit = GateList(2, [(DATA, 0, 0), (RY, 0, 0), (DATA, 1, 1), (DATA, 0, 0)])
        lifted, occ = lift_data_slots(circuit)
        assert [g[0] for g in lifted.gates] == [RY, RY, RY, RY]
        assert list(occ) == [0, 1, 0]
        assert lifted.gates[0][2] == 1  # first lifted slot appended after base slot 0

    def test_lifted_evaluation_matches(self):
        rng = np.random.default_rng(61)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        from qhead.ansatz import count_parameters

        circuit = assemble_head_circuit(spec, 1)
        params = rng.uniform(-1, 1, count_parameters(spec))
        latent = rng.uniform(-1, 1, 3)
        lifted, occ = lift_data_slots(circuit)
        ext = np.concatenate([params, latent[occ]])
        assert evaluate_expectation(lifted, ext) == pytest.approx(
            evaluate_expectation(circuit, params, latent), abs=1e-14
        )


class TestTrajectoryExpectation:
    def test_noiseless_reduces_to_evaluate(self):
        rng = np.random.default_rng(71)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        from qhead.ansatz import count_parameters

        params = rng.uniform(-1, 1, count_parameters(spec))
        latent = rng.uniform(-1, 1, 3)
        circuit = assemble_head_circuit(spec, 1)
        a = trajectory_expectation(circuit, params, latent, NoiseModel(0, 0, None), None)
        b = evaluate_expectation(circuit, params, latent)
        assert a == b

    def test_requires_rng_when_noisy(self):
        with pytest.raises(ConfigurationError):
            trajectory_expectation(_single_ry(), [0.3], noise=NoiseModel(p1q=0.5))

    def test_deterministic_under_seeded_stream(self):
        from qhead.seeding import stream

        spec = CircuitSpec(qubits=3, main_layers=2, reupload_count=1)
        from qhead.ansatz import count_parameters

        params = np.linspace(-1, 1, count_parameters(spec))
        latent = np.array([0.2, -0.4, 0.9])
        model = NoiseModel(p1q=0.3, p2q=0.3)
        circuit = assemble_head_circuit(spec, 1)
        a = trajectory_expectation(circuit, params, latent, model, stream(7, 1, 2))
        b = trajectory_expectation(circuit, params, latent, model, stream(7, 1, 2))
        assert a == b


_MEASURED_CALLS = {
    "evaluate_expectation": lambda c, p, m: evaluate_expectation(c, p, measured=m),
    "trajectory_expectation": lambda c, p, m: trajectory_expectation(c, p, measured=m),
    "parameter_shift_gradient": lambda c, p, m: parameter_shift_gradient(c, p, measured=m),
    "finite_difference_oracle": lambda c, p, m: finite_difference_oracle(c, p, measured=m),
    "adjoint_gradient": lambda c, p, m: adjoint_gradient(c, p, measured=m),
}


@pytest.mark.parametrize("measured", [-1, 2])
@pytest.mark.parametrize("name", sorted(_MEASURED_CALLS))
def test_measured_qubit_outside_the_register_is_rejected(name, measured):
    """-1 must not read the last qubit, and 2 of 2 qubits must not index past it."""
    circuit = GateList(2, [(RY, 0, 0)])
    with pytest.raises(ConfigurationError, match=f"measured qubit {measured} out of range"):
        _MEASURED_CALLS[name](circuit, [0.1], measured)


@pytest.mark.parametrize("record, match", [
    ((CNOT, 0, 0), "control as its target"),
    ((RY, 3, 0), "qubit 3 of .* is outside the 2-qubit register"),
    ((CNOT, 0, 5), "qubit 5 of .* is outside the 2-qubit register"),
], ids=["cnot_0_to_0", "ry_on_3_of_2", "cnot_0_to_5_of_2"])
@pytest.mark.parametrize("call", [evaluate_expectation, adjoint_gradient,
                                  depolarizing_reference_expectation])
def test_bad_records_rejected(call, record, match):
    """A record off the register or a CNOT onto its own control is rejected by
    the one record check, not misread by the kernels or the reference."""
    with pytest.raises(ConfigurationError, match=match):
        call(GateList(2, [(RY, 0, 0), record]), [0.8])


@pytest.mark.parametrize("call, match", [
    (lambda: run_gates(np.eye(1, 4)[0], GateList(2, [("encode", 0)])), "unknown gate record"),
    (lambda: evaluate_expectation(GateList(25, [(RY, 0, 0)]), [0.1]),
     r"register width must be in \[1, 24\] for simulation, got 25"),
    (lambda: evaluate_expectation(GateList(2, [(RY, 0, 0)]), [[0.1]]),
     "params must be a 1-D vector"),
    (lambda: evaluate_expectation(GateList(2, [(DATA, 0, 0)]), [], [[0.1]]),
     "latent must be a 1-D vector"),
    (lambda: evaluate_expectation(GateList(2, [(DATA, 0, 0)]), []),
     "reads latent values but no latent vector given"),
    (lambda: evaluate_expectation(GateList(2, [(DATA, 0, 2)]), [], [0.1, 0.2]),
     "latent index 2 out of range for length 2"),
], ids=["unknown_record", "width_25", "params_2d", "latent_2d", "data_without_latent",
        "latent_index_past_end"])
def test_bad_inputs_rejected(call, match):
    with pytest.raises(ConfigurationError, match=match):
        call()


def _half_turn_rows(params):
    """The unturned row, then params + pi e_j for each column j: (1 + P, P)."""
    return _shift_rows(params, math.pi)[: 1 + params.size]


def _check_half_turns(circuit, params):
    """``_batch_expectations`` against complex128 rows run alone and the per-gate engine."""
    rows = _half_turn_rows(params)
    got = _batch_expectations(circuit, params)[0][0]
    want = TestBatchExpectations._reference(circuit, rows[1:])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    per_gate = per_gate_expectations(circuit, rows, None, 0)[1:]
    np.testing.assert_allclose(got, per_gate, rtol=0, atol=1e-12)


def _expanded_trajectory(rng, qubits=4):
    """A sampled trajectory of a head circuit with data records (unlifted), its P and a latent."""
    spec = CircuitSpec(qubits=qubits, main_layers=2, reupload_count=1, reupload_layers=1)
    circuit = sample_pauli_insertions(assemble_head_circuit(spec, 1),
                                      NoiseModel(p1q=0.4, p2q=0.4), rng)
    return circuit, count_parameters(spec), rng.uniform(-1, 1, qubits)


class TestBatchExpectations:
    """Half-turn values: the row turned in column j runs alone from the gate reading j."""

    @staticmethod
    def _reference(circuit, rows, latent=None, measured=0):
        # every row run alone on a complex128 state through run_gates
        n = circuit.num_qubits
        out = []
        for row in rows:
            amps = np.zeros(1 << n, dtype=np.complex128)
            amps[0] = 1.0
            run_gates(amps, circuit, row, latent)
            out.append(float(_z_expectation(amps, n, measured)))
        return np.array(out)

    @staticmethod
    def _circuit(rng):
        """A lifted head trajectory on 4 qubits and its slot values."""
        return _head_trajectory(4, rng, reupload_count=1, p=0.4)

    def test_first_difference_read_late(self):
        rng = np.random.default_rng(5)
        circuit, params = self._circuit(rng)
        last = [g[2] for g in circuit.gates if g[0] == RY][-1]
        got = _batch_expectations(circuit, params)[0][0]
        want = self._reference(circuit, _half_turn_rows(params)[1 + last][None])
        np.testing.assert_allclose(got[last], want[0], rtol=0, atol=1e-12)
        _check_half_turns(circuit, params)

    def test_chunk_boundaries(self, monkeypatch):
        rng = np.random.default_rng(7)
        circuit, params = self._circuit(rng)
        whole = _batch_expectations(circuit, params)[0][0]
        for per_chunk in (1, 2, 5):
            # chunks of per_chunk + 1 turned rows, each also running the unturned row
            monkeypatch.setattr(grad_mod, "_CHUNK_ELEMENTS", (per_chunk + 1) << circuit.num_qubits)
            np.testing.assert_array_equal(_batch_expectations(circuit, params)[0][0], whole)
        _check_half_turns(circuit, params)

    def test_y_insertions_on_real_states(self):
        rng = np.random.default_rng(8)
        circuit, params = self._circuit(rng)
        labels = [g[2] for g in circuit.gates if g[0] == PAULI]
        assert "Y" in labels
        _check_half_turns(circuit, params)

    def test_rows_start_at_their_first_differing_gate(self, monkeypatch):
        # the kernel row counts of the per-gate reference engine
        rng = np.random.default_rng(10)
        circuit, p, latent = _expanded_trajectory(rng)
        rows = _shift_rows(rng.uniform(-3, 3, p), math.pi / 2)
        first = {}
        for i, g in enumerate(circuit.gates):
            if g[0] == RY:
                first.setdefault(g[2], i)
        n_gates = len(circuit.gates)
        # row 0 runs every gate; rows j+1 and 1+p+j run from column j's first read
        want = n_gates + 2 * sum(n_gates - first[j] for j in range(p))
        applied = []
        for kernel in ("_ry", "_cnot", "_pauli"):
            original = getattr(grad_mod, kernel)

            def counted(amps, n, *args, original=original):
                applied.append(amps.shape[0])
                return original(amps, n, *args)

            monkeypatch.setattr(grad_mod, kernel, counted)
        per_gate_expectations(circuit, rows, latent, 0)
        assert sum(applied) == want < rows.shape[0] * n_gates


def _rows_alone(circuit, rows, latent=None, measured=0):
    """Each row run alone through ``run_gates`` on a float64 row from |0...0>."""
    n = circuit.num_qubits
    out = []
    for row in rows:
        amps = np.zeros(1 << n)
        amps[0] = 1.0
        run_gates(amps, circuit, row, latent)
        out.append(_z_expectation(amps, n, measured))
    return np.array(out)


# slot 0 is read at gates 0 and 3
_SLOT_READ_TWICE = GateList(3, [(RY, 0, 0), (CNOT, 0, 1), (RY, 1, 1), (RY, 2, 0),
                                (PAULI, 2, "Y"), (CNOT, 2, 0), (RY, 0, 2), (CNOT, 1, 2)])


class TestSharedAngleSplit:
    """The shift rule on a slot read by two RY gates, from plain +/- rows.

    Each shifted row takes its angle at both reads and keeps the bits it has
    when run alone.
    """

    def test_column_read_at_two_gates(self):
        circuit = _SLOT_READ_TWICE
        params = np.array([0.4, -1.1, 2.3])
        rows = _shift_rows(params, math.pi / 2)
        for measured in (0, 2):
            got = parameter_shift_gradient(circuit, params, measured=measured)
            alone = _rows_alone(circuit, rows, measured=measured)
            np.testing.assert_array_equal(got, (alone[1:4] - alone[4:]) / 2.0)
            want = TestBatchExpectations._reference(circuit, rows, measured=measured)
            np.testing.assert_allclose(got, (want[1:4] - want[4:]) / 2.0, rtol=0, atol=1e-12)


def _lifted_head_trajectory(rng):
    """A lifted head circuit (no data records) on one sampled trajectory, and its slot count."""
    spec = CircuitSpec(qubits=4, main_layers=2, reupload_count=2, reupload_layers=1)
    lifted, occurrences = lift_data_slots(assemble_head_circuit(spec, 2))
    circuit = sample_pauli_insertions(lifted, NoiseModel(p1q=0.4, p2q=0.4), rng)
    return circuit, count_parameters(spec) + occurrences.size


class TestRowsRunAlone:
    """Every row of the per-gate reference engine has the bits of that row run alone.

    The fused engine, ``_batch_expectations``, matches its half-turn rows to
    1e-12 (``TestFusedBlocks``), and rejects a column read twice or not at all.
    """

    @pytest.mark.parametrize("per_chunk", [None, 1, 2, 5])
    def test_bits_match_rows_run_alone(self, per_chunk, monkeypatch):
        rng = np.random.default_rng(12)
        lifted, slots = _lifted_head_trajectory(rng)
        expanded, p, latent = _expanded_trajectory(rng)
        assert any(g[0] == PAULI and g[2] == "Y" for c in (lifted, expanded) for g in c.gates)
        cases = [
            (lifted, _half_turn_rows(rng.uniform(-3, 3, slots)), None),
            (lifted, _shift_rows(rng.uniform(-3, 3, slots), math.pi / 2), None),
            (expanded, _shift_rows(rng.uniform(-3, 3, p), math.pi / 2), latent),
        ]
        if per_chunk is not None:
            # slices of per_chunk + 1 rows; each chunk after the first also reruns row 0
            monkeypatch.setattr(grad_mod, "_CHUNK_ELEMENTS", (per_chunk + 1) << 4)
        for circuit, rows, lat in cases:
            for measured in (0, circuit.num_qubits - 1):
                got = per_gate_expectations(circuit, rows, lat, measured)
                np.testing.assert_array_equal(got, _rows_alone(circuit, rows, lat, measured))
        params = np.array([0.4, -1.1, 2.3])
        alone = _rows_alone(_SLOT_READ_TWICE, _shift_rows(params, math.pi / 2))
        np.testing.assert_array_equal(parameter_shift_gradient(_SLOT_READ_TWICE, params),
                                      (alone[1:4] - alone[4:]) / 2.0)

    def test_row_angles_only_for_rows_shifted_in_the_gate_column(self, monkeypatch):
        rng = np.random.default_rng(13)
        lifted, slots = _lifted_head_trajectory(rng)
        calls = []
        original = grad_mod._ry

        def recorded(amps, n, qubit, theta):
            calls.append((qubit, np.asarray(theta), amps.shape[0]))
            return original(amps, n, qubit, theta)

        monkeypatch.setattr(grad_mod, "_ry", recorded)
        rows = _shift_rows(rng.uniform(-3, 3, slots), math.pi / 2)
        per_gate_expectations(lifted, rows, None, 0)
        per_row = [i for i, (_, theta, _) in enumerate(calls) if theta.ndim]
        assert 0 < len(per_row) < len(calls)
        for i in per_row:
            # the call before is the same gate on the rows ahead of the block,
            # with row 0's scalar angle: that angle names the gate's column
            qubit, theta, n_rows = calls[i]
            prev_qubit, prev_theta, _ = calls[i - 1]
            assert prev_theta.ndim == 0 and prev_qubit == qubit
            (col,) = np.flatnonzero(rows[0] == prev_theta)
            assert theta.shape == (n_rows,)
            assert np.all(theta != rows[0, col])
            assert np.all(np.isin(theta, rows[1:, col]))

    def test_column_read_by_two_gates_is_rejected(self):
        # only the parameter-shift references run circuits that read a slot twice,
        # and they run plain rows
        with pytest.raises(ConfigurationError, match="column 0 is read by 2 RY gates"):
            _batch_expectations(_SLOT_READ_TWICE, np.array([0.4, -1.1, 2.3]))

    def test_unread_column_is_rejected(self):
        with pytest.raises(ConfigurationError, match="column 1 is read by 0 RY gates"):
            _batch_expectations(GateList(2, [(RY, 0, 0), (CNOT, 0, 1)]), np.array([0.4, -1.1]))


def _head_trajectory(qubits, rng, connectivity=1, main_layers=2, reupload_count=4, p=0.2):
    """One sampled trajectory of a lifted head circuit, and its slot values."""
    spec = CircuitSpec(qubits=qubits, connectivity=connectivity, main_layers=main_layers,
                       reupload_count=reupload_count, reupload_layers=1)
    lifted, occurrences = lift_data_slots(assemble_head_circuit(spec, 1))
    circuit = sample_pauli_insertions(lifted, NoiseModel(p1q=p, p2q=p), rng)
    return circuit, rng.uniform(-3, 3, count_parameters(spec) + occurrences.size)


class TestFusedBlocks:
    """``_batch_expectations`` runs its gates in fused blocks of at most four qubits.

    Each case is checked against complex128 rows run alone at 1e-12, and
    against the per-gate engine of ``tests/reference.py``.
    """

    @staticmethod
    def _starts(circuit):
        """(first gate, end, lo) of each block."""
        _, blocks = grad_mod._blocks(circuit)
        ends = [end for end, _, _ in blocks]
        return [(first, end, lo) for first, (end, lo, _) in zip([0] + ends[:-1], blocks)]

    @pytest.mark.parametrize("qubits", range(2, 11))
    def test_half_turn_and_quarter_turn_rows(self, qubits):
        rng = np.random.default_rng(40 + qubits)
        circuit, ext = _head_trajectory(qubits, rng, reupload_count=2)
        assert any(g[0] == PAULI for g in circuit.gates)
        _check_half_turns(circuit, ext)
        # the head's quarter turns: E(ext_j +/- pi/2) = [E + E(ext_j + pi)] / 2 +/- dE/dext_j
        mid = (evaluate_expectation(circuit, ext) + _batch_expectations(circuit, ext)[0][0]) / 2
        slope = adjoint_gradient(circuit, ext)
        want = TestBatchExpectations._reference(circuit, _shift_rows(ext, math.pi / 2)[1:])
        np.testing.assert_allclose(np.concatenate([mid + slope, mid - slope]), want,
                                   rtol=0, atol=1e-12)

    def test_benchmark_shape(self):
        # Q = 10, M = 2, R = 4, N = 1, lifted: the rows of one paper-shape sample
        rng = np.random.default_rng(50)
        circuit, ext = _head_trajectory(10, rng, p=0.01)
        assert ext.shape == (110,)
        _check_half_turns(circuit, ext)

    def test_windows_at_top_middle_and_bottom_and_the_wrap_around_cnot(self):
        rng = np.random.default_rng(51)
        circuit, ext = _head_trajectory(10, rng)
        k, blocks = grad_mod._blocks(circuit)
        assert k == 4
        windows = {lo for _, lo, _ in blocks}
        assert {0, 6, None} <= windows and windows & {1, 2, 3, 4, 5}
        singles = [gates for _, lo, gates in blocks if lo is None]
        assert (CNOT, 9, 0) in [g for gates in singles for g in gates]
        assert all(len(gates) == 1 for gates in singles)
        _check_half_turns(circuit, ext)

    @pytest.mark.parametrize("connectivity", [2, 3])
    def test_connectivity(self, connectivity):
        rng = np.random.default_rng(52 + connectivity)
        circuit, ext = _head_trajectory(8, rng, connectivity=connectivity, main_layers=3)
        assert any(g[0] == CNOT and abs(g[1] - g[2]) == connectivity for g in circuit.gates)
        _check_half_turns(circuit, ext)

    def test_pauli_records_inside_a_window(self):
        rng = np.random.default_rng(55)
        circuit, ext = _head_trajectory(6, rng)
        inside = {g[2] for _, lo, gates in grad_mod._blocks(circuit)[1] if lo is not None
                  for g in gates if g[0] == PAULI}
        assert "Y" in inside
        _check_half_turns(circuit, ext)

    def test_rows_starting_at_the_first_and_the_last_gate_of_a_block(self):
        rng = np.random.default_rng(56)
        circuit, ext = _head_trajectory(6, rng)
        gates = circuit.gates
        cases = [(gates[first], gates[end - 1]) for first, end, lo in self._starts(circuit)
                 if lo is not None and end - first > 2
                 and gates[first][0] == RY and gates[end - 1][0] == RY]
        assert cases
        cols = [g[2] for pair in cases for g in pair]
        rows = _half_turn_rows(ext)[1:][cols]
        got = _batch_expectations(circuit, ext)[0][0][cols]
        np.testing.assert_allclose(got, TestBatchExpectations._reference(circuit, rows),
                                   rtol=0, atol=1e-12)
        _check_half_turns(circuit, ext)


def _own_records(merged, row):
    """Row ``row``'s gate list of a merged circuit: its tagged records untagged, no others."""
    return GateList(merged.num_qubits, [g[:3] for g in merged.gates
                                        if g[0] != PAULI or len(g) == 3 or g[3] == row])


class TestOneFusedPass:
    """``_batch_expectations`` on a row chunk: plan circuit, shared angles, per-row latents.

    Each row's half-turn values match the per-gate engine run on that row's
    own lifted trajectory, and its slopes c the per-gate adjoint sweep of
    the merged rows.
    """

    @staticmethod
    def _chunk(qubits, rows, seed):
        """A merged chunk with a tagged Y inside a block, tagged records on the
        control and the target of a wide CNOT (Q - 1, 0), and an untagged record."""
        rng = np.random.default_rng(seed)
        plan = _plan_pqc(CircuitSpec(qubits=qubits, main_layers=2, reupload_count=2,
                                     reupload_layers=1), qubits)
        runs = [sample_pauli_insertions(plan.circuit, NoiseModel(p1q=0.2, p2q=0.2), rng)
                for _ in range(rows)]
        gates = list(_merge_trajectories(plan.circuit, runs).gates)
        wide = gates.index((CNOT, qubits - 1, 0))
        k, blocks = _blocks(plan.circuit)
        assert [g for _, lo, g in blocks if lo is None][0] == [(CNOT, qubits - 1, 0)]
        gates[wide + 1 : wide + 1] = [(PAULI, qubits - 1, "X", rows - 1), (PAULI, 0, "Z", rows - 1)]
        rys = [i for i, g in enumerate(gates) if g[0] == RY]
        middle = rys[len(rys) // 2]
        gates.insert(middle + 1, (PAULI, gates[middle][1], "Y", 0))
        gates.insert(2, (PAULI, 1, "Y"))
        params = rng.uniform(-np.pi, np.pi, plan.n_params)
        return GateList(qubits, gates), params, rng.uniform(-1, 1, (rows, plan.occurrences.size))

    @pytest.mark.parametrize("rows", [1, 5, 16])
    @pytest.mark.parametrize("qubits", [3, 4, 6, 10])
    def test_matches_the_per_gate_engine_and_the_sweep(self, qubits, rows):
        merged, params, latent = self._chunk(qubits, rows, 90 + qubits + rows)
        values, slopes = _batch_expectations(merged, params, latent)
        assert values.shape == slopes.shape == (rows, params.size + latent.shape[1])
        final = run_gates(np.repeat(np.eye(1, 1 << qubits), rows, axis=0), merged, params, latent)
        gp, gl = adjoint_observable_gradients(merged, params, latent, np.eye(qubits)[0], final)
        np.testing.assert_allclose(slopes, np.hstack([gp, gl]), rtol=0, atol=1e-14)
        for row in range(rows):
            lifted, _ = lift_data_slots(_own_records(merged, row))
            ext = np.concatenate([params, latent[row]])
            want = per_gate_expectations(lifted, _half_turn_rows(ext), None, 0)[1:]
            # fused and per-gate arithmetic round apart by up to about 1.1e-15
            np.testing.assert_allclose(values[row], want, rtol=0, atol=2e-15)

    def test_rows_keep_their_bits_in_any_chunk(self, monkeypatch):
        merged, params, latent = self._chunk(4, 5, 3)
        whole = _batch_expectations(merged, params, latent)
        # two turned rows per inner chunk, each led again by the unturned row
        monkeypatch.setattr(grad_mod, "_CHUNK_ELEMENTS", 3 << 4)
        for lo, hi in ((0, 2), (2, 5), (4, 5)):
            part = GateList(4, [g if g[0] != PAULI or len(g) == 3 else (*g[:3], g[3] - lo)
                                for g in merged.gates if g[0] != PAULI or len(g) == 3
                                or lo <= g[3] < hi])
            for got, want in zip(_batch_expectations(part, params, latent[lo:hi]), whole):
                np.testing.assert_array_equal(got, want[lo:hi])


@pytest.mark.parametrize("tag", [-1, 7, 1.0])
def test_row_tags_outside_the_rows_are_rejected(tag):
    """A tagged record must name one of the rows: -1 must not act on the last."""
    circuit = GateList(2, [(RY, 0, 0), (PAULI, 1, "X", tag), (CNOT, 0, 1)])
    params = np.array([0.3])
    amps = np.repeat(np.eye(1, 4), 2, axis=0)
    with pytest.raises(ConfigurationError, match="tagged with row"):
        run_gates(amps.copy(), circuit, params)
    with pytest.raises(ConfigurationError, match="tagged with row"):
        adjoint_observable_gradients(circuit, params, None, np.eye(2)[0], amps)
    with pytest.raises(ConfigurationError, match="tagged with row"):
        _batch_expectations(circuit, params, np.zeros((2, 0)))


def _layout_circuit(qubits, rows, rng):
    """Two layers of: RY and DATA records on every qubit, CNOTs both ways between
    neighbours and across (Q - 1, 0), and an untagged and a row-tagged X, Y or Z
    record on every qubit. Returns the list and its slot and latent counts."""
    gates, slots, reads = [], 0, 0
    for layer in range(2):
        for q in range(qubits):
            gates += [(RY, q, slots), (DATA, q, reads)]
            slots, reads = slots + 1, reads + 1
        for q in range(qubits - 1):
            gates += [(CNOT, q, q + 1), (CNOT, q + 1, q)]
        if qubits > 2:
            gates += [(CNOT, qubits - 1, 0), (CNOT, 0, qubits - 1)]
        for q in range(qubits):
            gates += [(PAULI, q, "XYZ"[(q + layer) % 3]),
                      (PAULI, q, "XYZ"[(q + layer + 1) % 3], int(rng.integers(rows)))]
    return GateList(qubits, gates), slots, reads


def _chunk_records(merged, lo, hi):
    """The gate list of rows lo:hi of a merged list, its tags renumbered from lo."""
    return GateList(merged.num_qubits, [
        g if g[0] != PAULI or len(g) == 3 else (*g[:3], g[3] - lo)
        for g in merged.gates if g[0] != PAULI or len(g) == 3 or lo <= g[3] < hi])


class TestAmplitudeMajorRows:
    """``run_gates`` and the per-gate sweep run B rows amplitude-major, as (2^Q, B).

    Each row keeps the bits of that row run alone: the forward pass applies
    the same elementwise operations to every amplitude, and the sweep sums
    each row's derivative terms by one rule for any row count.
    """

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 16])
    @pytest.mark.parametrize("qubits", [1, 2, 3, 6, 10])
    def test_run_gates_gives_each_row_its_bits_alone(self, qubits, rows, shared, dtype):
        rng = np.random.default_rng(1000 + 10 * qubits + rows)
        circuit, slots, reads = _layout_circuit(qubits, rows, rng)
        params = rng.uniform(-math.pi, math.pi, slots if shared else (rows, slots))
        latent = rng.uniform(-1, 1, (rows, reads))
        initial = rng.standard_normal((rows, 1 << qubits)).astype(dtype)
        if dtype == np.complex128:
            initial.imag = rng.standard_normal(initial.shape)
        got = run_gates(initial.copy(), circuit, params, latent)
        for b in range(rows):
            alone = run_gates(initial[b].copy(), _own_records(circuit, b),
                              params if shared else params[b], latent[b])
            np.testing.assert_array_equal(got[b], alone)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
    @pytest.mark.parametrize("qubits", [1, 3, 6, 10])
    def test_sweep_gives_each_row_its_bits_alone_and_in_any_chunk(self, qubits, shared):
        rows = 16
        rng = np.random.default_rng(1200 + qubits)
        circuit, slots, reads = _layout_circuit(qubits, rows, rng)
        params = rng.uniform(-math.pi, math.pi, slots if shared else (rows, slots))
        latent = rng.uniform(-1, 1, (rows, reads))
        weights = rng.standard_normal((rows, qubits))
        initial = amplitude_encode_rows(rng.standard_normal((rows, 1 << qubits)), qubits)
        final = run_gates(initial, circuit, params, latent)
        whole = adjoint_observable_gradients(circuit, params, latent, weights, final)
        for size in (1, 2, 3, 16):
            for lo in range(0, rows, size):
                hi = min(lo + size, rows)
                got = adjoint_observable_gradients(
                    _chunk_records(circuit, lo, hi), params if shared else params[lo:hi],
                    latent[lo:hi], weights[lo:hi], final[lo:hi])
                for part, want in zip(got, whole):
                    np.testing.assert_array_equal(part, want[lo:hi])
        for b in range(rows):  # a 1-D final, with every argument 1-D
            got = adjoint_observable_gradients(_own_records(circuit, b),
                                               params if shared else params[b],
                                               latent[b], weights[b], final[b])
            for part, want in zip(got, whole):
                np.testing.assert_array_equal(part[0], want[b])

    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_kernel_calls_count_their_rows(self, rows, monkeypatch):
        """A call on R amplitude-major rows has ``amps.size >> Q == R``: B rows
        forward, 2B in the sweep (psi and lam), and a tagged record 1 or 2."""
        rng = np.random.default_rng(1300 + rows)
        circuit, slots, reads = _layout_circuit(4, rows, rng)
        params, latent = rng.uniform(-3, 3, slots), rng.uniform(-1, 1, (rows, reads))
        counted = []
        for kernel in ("_ry", "_cnot", "_pauli"):
            def recorded(amps, n, *args, original=getattr(grad_mod, kernel)):
                counted.append(amps.size >> n)
                return original(amps, n, *args)

            monkeypatch.setattr(grad_mod, kernel, recorded)
        tagged = [len(g) > 3 for g in circuit.gates]
        amps = np.repeat(np.eye(1, 16), rows, axis=0)
        final = run_gates(amps, circuit, params, latent)
        assert counted == [1 if t else rows for t in tagged]
        counted.clear()
        adjoint_observable_gradients(circuit, params, latent, np.eye(4)[0], final)
        assert counted == [2 if t else 2 * rows for t in reversed(tagged)]


def _random_block(rng, k, size=14):
    """``size`` gate records on k qubits: RY slots, CNOTs and X/Y/Z records."""
    gates, slots = [], 0
    for kind in rng.choice([RY, CNOT, PAULI], size=size):
        q = int(rng.integers(k))
        if kind == RY:
            gates.append((RY, q, slots))
            slots += 1
        elif kind == CNOT:
            gates.append((CNOT, q, int((q + rng.integers(1, k)) % k)))
        else:
            gates.append((PAULI, q, str(rng.choice(["X", "Y", "Z"]))))
    gates += [(PAULI, 0, "Y"), (RY, k - 1, slots)]
    return gates, rng.uniform(-3, 3, slots + 1)


class TestBlockMatrices:
    """``_block_matrices``: a block's M and its D_j, as the two fused engines use them."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_the_dense_oracle(self, k):
        rng = np.random.default_rng(60 + k)
        for _ in range(4):
            gates, params = _random_block(rng, k)
            assert {CNOT, PAULI} <= {g[0] for g in gates}
            assert [g[2] for g in gates if g[0] == RY] == list(range(params.size))
            ((mats,),) = _block_matrices(k, [(len(gates), 0, gates)], [params[None]])
            assert mats.shape == (1 + params.size, 1 << k, 1 << k)
            # real arrays apply Y as XZ = -iY
            phase = (-1j) ** sum(g[0] == PAULI and g[2] == "Y" for g in gates)

            def dense(p):
                return np.column_stack([dense_run(gates, k, params=p, initial=e)
                                        for e in np.eye(1 << k)])

            np.testing.assert_allclose(mats[0].T, phase * dense(params), rtol=0, atol=1e-14)
            for j in range(params.size):
                turned = params.copy()
                turned[j] += math.pi
                np.testing.assert_allclose(mats[1 + j].T, phase * dense(turned),
                                           rtol=0, atol=1e-14)
                rebuilt = _block_matrices(k, [(len(gates), 0, gates)], [turned[None]])[0][0, 0]
                np.testing.assert_allclose(mats[1 + j], rebuilt, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("qubits", [4, 10])
    def test_grouped_blocks_equal_blocks_built_alone(self, qubits, monkeypatch):
        # the head circuit's cut has blocks with RY records, with DATA records
        # and with both, and repeats its gate patterns
        spec = CircuitSpec(qubits=qubits, main_layers=2, reupload_count=4, reupload_layers=1)
        k, cut = _blocks(assemble_head_circuit(spec, 1))
        rng = np.random.default_rng(90 + qubits)
        angles = [rng.uniform(-math.pi, math.pi, (rng.choice((1, 5)),
                                                  sum(g[0] in (RY, DATA) for g in gates)))
                  for _, _, gates in cut]
        assert {len(a) for a in angles} == {1, 5}
        calls = []
        ry = grad_mod._ry
        monkeypatch.setattr(grad_mod, "_ry", lambda *args: calls.append(args) or ry(*args))
        grouped = _block_matrices(k, cut, angles)
        windowed = [i for i, (_, lo, _) in enumerate(cut) if lo is not None]
        assert 0 < len(calls) < len(windowed)
        for i, block in enumerate(cut):
            if i not in windowed:
                assert grouped[i] is None
                continue
            (alone,) = _block_matrices(k, [block], [angles[i]])
            assert grouped[i].shape == (len(angles[i]), 1 + angles[i].shape[1], 1 << k, 1 << k)
            assert grouped[i].tobytes() == alone.tobytes()


def _encoder_shapes():
    """(Qc, layers, connectivity, extra_rotation): every valid connectivity up to 3."""
    shapes = [(10, 27, 1, True)]
    for q in (1, 2, 3, 4, 6, 10):
        for extra in (True, False):
            shapes.append((q, 0, 1, extra))
            shapes += [(q, 3, c, extra) for c in range(1, min(q, 4))]
    return shapes


class TestBlockAdjoint:
    """The encoder's block sweep: shared angles, row-summed gradients."""

    @staticmethod
    def _rows(shape, rows, seed):
        q, layers, connectivity, extra = shape
        config = EncoderConfig(1, q, layers, connectivity, extra)
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-math.pi, math.pi, config.params_per_encoder)
        initial = amplitude_encode_rows(rng.standard_normal((rows, 1 << q)), q)
        weights = rng.standard_normal((rows, q))
        return config, encoder_circuit(config), theta, initial, weights

    @pytest.mark.parametrize("shape", _encoder_shapes())
    def test_matches_the_per_gate_sweep(self, shape):
        for rows in (1, 5, 16):
            _, circuit, theta, initial, weights = self._rows(shape, rows, 71 + rows)
            final = run_gates(initial.copy(), circuit, theta, None)
            kept = final.copy()
            got = block_adjoint_gradients(circuit, _blocks(circuit), theta, weights, final)
            per_gate, _ = adjoint_observable_gradients(circuit, theta, None, weights, final)
            assert got.shape == theta.shape
            np.testing.assert_allclose(got, per_gate.sum(axis=0), rtol=0, atol=1e-13)
            np.testing.assert_array_equal(final, kept)

    @pytest.mark.parametrize("shape", [s for s in _encoder_shapes() if s[0] <= 4])
    def test_matches_finite_differences_of_the_dense_oracle(self, shape):
        q = shape[0]
        _, circuit, theta, initial, weights = self._rows(shape, 3, 81)
        final = run_gates(initial.copy(), circuit, theta, None)
        got = block_adjoint_gradients(circuit, _blocks(circuit), theta, weights, final)

        def value(t):
            states = [dense_run(circuit.gates, q, params=t, initial=x) for x in initial]
            return sum(w[j] * dense_z(psi, j, q)
                       for psi, w in zip(states, weights) for j in range(q))

        h = 1e-5
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            assert got[j] == pytest.approx((value(up) - value(down)) / (2 * h), abs=1e-8)

    @pytest.mark.parametrize("shape", [(4, 3, 2, True), (6, 2, 3, False), (10, 3, 1, True)])
    @pytest.mark.parametrize("rows", [1, 5, 16])
    def test_two_encoders_match_the_complex_reference(self, shape, rows):
        q, layers, connectivity, extra = shape
        config = EncoderConfig(2, q, layers, connectivity, extra)
        encoder = QuantumEncoder(config, np.random.default_rng(91))
        rng = np.random.default_rng(92 + rows)
        X = rng.standard_normal((rows, (1 << q) - 1))
        dlatent = rng.standard_normal((rows, 2 * q))
        latent, saved = encoder.forward(X, grads=True)
        np.testing.assert_array_equal(latent, encoder.forward(X))
        grads = encoder.backward(saved, dlatent)
        for e, theta in enumerate(encoder.theta):
            ref = sum(encoder_backward(x, theta, config, d[e * q : (e + 1) * q])
                      for x, d in zip(X, dlatent))
            np.testing.assert_allclose(grads[f"encoder_{e}"], ref, rtol=0, atol=1e-12)

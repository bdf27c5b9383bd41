"""Hybrid head: encoders, noisy circuit stage, linear readout, end-to-end gradients."""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest

import qhead.head as head_mod
import qhead.simcore as simcore
from qhead.ansatz import DATA, RY, CircuitSpec, GateList, count_parameters, assemble_head_circuit
from qhead.checkpoint import load_checkpoint, save_checkpoint
from qhead.errors import ConfigurationError, DegenerateInputError
from qhead.grad import evaluate_expectation
from qhead.head import EncoderConfig, build_hybrid_head, encoder_circuit
from qhead.noise import NoiseModel, depolarizing_reference_expectation
from qhead.seeding import PARAM_INIT, stream
from qhead.trainer import load_parameters, softmax_cross_entropy_batch

from oracles import dense_run, dense_z
from reference import (
    HeadParams,
    count_head_parameters,
    encoder_backward,
    encoder_forward,
    head_forward,
    head_gradient,
    init_head_params,
    linear_logits,
    multi_encoder_forward,
    pqc_forward,
)


def _basis_vector(dim, i=0):
    x = np.zeros(dim)
    x[i] = 1.0
    return x


class TestEncoderForward:
    def test_zero_angles_basis_input(self):
        cfg = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=2,
                            extra_rotation=True)
        latent = encoder_forward(_basis_vector(8), np.zeros(cfg.params_per_encoder), cfg)
        np.testing.assert_allclose(latent, np.ones(3), atol=1e-12)

    def test_latent_range(self):
        rng = np.random.default_rng(1)
        cfg = EncoderConfig(num_encoders=1, encoder_qubits=4, encoder_layers=3)
        for _ in range(10):
            x = rng.standard_normal(16)
            theta = rng.uniform(-math.pi, math.pi, cfg.params_per_encoder)
            latent = encoder_forward(x, theta, cfg)
            assert latent.shape == (4,)
            assert np.all(latent >= -1 - 1e-12) and np.all(latent <= 1 + 1e-12)

    def test_two_qubit_case_matches_dense_oracle(self):
        cfg = EncoderConfig(num_encoders=1, encoder_qubits=2, encoder_layers=1,
                            extra_rotation=True)
        x = np.array([0.6, -0.3, 0.5, 0.2])
        theta = np.array([0.4, -1.1, 0.8])
        latent = encoder_forward(x, theta, cfg)
        initial = x / np.linalg.norm(x)
        psi = dense_run(encoder_circuit(cfg).gates, 2, params=theta, initial=initial)
        want = np.array([dense_z(psi, 0, 2), dense_z(psi, 1, 2)])
        np.testing.assert_allclose(latent, want, atol=1e-12)

    def test_deterministic(self):
        cfg = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8)
        theta = rng.uniform(-1, 1, cfg.params_per_encoder)
        a = encoder_forward(x, theta, cfg)
        b = encoder_forward(x, theta, cfg)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_input_propagates(self):
        cfg = EncoderConfig(num_encoders=1, encoder_qubits=2, encoder_layers=1)
        with pytest.raises(DegenerateInputError):
            encoder_forward(np.zeros(4), np.zeros(cfg.params_per_encoder), cfg)

    def test_extra_rotation_adds_one_parameter(self):
        with_extra = EncoderConfig(encoder_qubits=4, encoder_layers=3, extra_rotation=True)
        without = EncoderConfig(encoder_qubits=4, encoder_layers=3, extra_rotation=False)
        assert with_extra.params_per_encoder == 13
        assert without.params_per_encoder == 12


class TestMultiEncoder:
    def test_single_encoder_degenerate_case(self):
        cfg = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8)
        theta = rng.uniform(-1, 1, cfg.params_per_encoder)
        np.testing.assert_array_equal(
            multi_encoder_forward(x, [theta], cfg), encoder_forward(x, theta, cfg)
        )

    def test_identical_parameters_give_equal_halves(self):
        cfg = EncoderConfig(num_encoders=2, encoder_qubits=3, encoder_layers=2)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(8)
        theta = rng.uniform(-1, 1, cfg.params_per_encoder)
        latent = multi_encoder_forward(x, [theta, theta], cfg)
        np.testing.assert_array_equal(latent[:3], latent[3:])

    def test_wrong_parameter_vector_count(self):
        cfg = EncoderConfig(num_encoders=2, encoder_qubits=2, encoder_layers=1)
        with pytest.raises(ConfigurationError):
            multi_encoder_forward(np.ones(4), [np.zeros(cfg.params_per_encoder)], cfg)

    @pytest.mark.parametrize("num_encoders", [1, 2, 4])
    def test_state_memory_scales_with_encoder_count(self, num_encoders, monkeypatch):
        cfg = EncoderConfig(num_encoders=num_encoders, encoder_qubits=4, encoder_layers=1)
        allocated = []
        original = simcore.amplitude_encode

        def counting(x, num_qubits):
            sv = original(x, num_qubits)
            allocated.append(sv.amplitudes.size)
            return sv

        monkeypatch.setattr("reference.amplitude_encode", counting)
        rng = np.random.default_rng(5)
        theta = [rng.uniform(-1, 1, cfg.params_per_encoder) for _ in range(num_encoders)]
        multi_encoder_forward(rng.standard_normal(16), theta, cfg)
        assert sum(allocated) == num_encoders * 2**4


class TestPqcForward:
    def test_all_zero_inputs(self):
        spec = CircuitSpec(qubits=4, main_layers=2, reupload_count=2)
        z = pqc_forward(np.zeros(4), np.zeros(count_parameters(spec)), spec)
        assert z == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_reduction(self):
        rng = np.random.default_rng(6)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        theta = rng.uniform(-1, 1, count_parameters(spec))
        latent = rng.uniform(-1, 1, 3)
        a = pqc_forward(latent, theta, spec, NoiseModel(0, 0, None), None)
        b = evaluate_expectation(assemble_head_circuit(spec, 1), theta, latent)
        assert a == b

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_plan_circuit_numbers_each_encoding_rotation_by_occurrence(self, rounds):
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=2, reupload_layers=1)
        plan = head_mod._plan_pqc(spec, 3 * rounds)
        expanded = assemble_head_circuit(spec, rounds)
        p, k = plan.n_params, plan.occurrences.size
        assert k == 3 * 3 * rounds
        data = [g for g in plan.circuit.gates if g[0] == DATA]
        assert [g[2] for g in data] == list(range(k))
        # record k reads latent[occurrences[k]]: the same gates as the spec's
        # own circuit, which reads the latent itself
        renumbered = iter((DATA, g[1], plan.occurrences[g[2]]) for g in data)
        assert [next(renumbered) if g[0] == DATA else g for g in plan.circuit.gates] \
            == expanded.gates
        rng = np.random.default_rng(rounds)
        theta = rng.uniform(-math.pi, math.pi, p)
        latent = rng.uniform(-1, 1, 3 * rounds)
        assert evaluate_expectation(plan.circuit, theta, latent[plan.occurrences]) \
            == evaluate_expectation(expanded, theta, latent)

    def test_two_qubit_case_matches_dense_oracle(self):
        spec = CircuitSpec(qubits=2, main_layers=1, reupload_count=1, reupload_layers=1)
        rng = np.random.default_rng(7)
        theta = rng.uniform(-1, 1, count_parameters(spec))
        latent = np.array([0.3, -0.8])
        got = pqc_forward(latent, theta, spec)
        gates = assemble_head_circuit(spec, 1).gates
        psi = dense_run(gates, 2, params=theta, latent=latent)
        assert got == pytest.approx(dense_z(psi, 0, 2), abs=1e-12)

    def test_stacked_rounds_for_long_latent(self):
        spec = CircuitSpec(qubits=2, main_layers=1, reupload_count=1)
        rng = np.random.default_rng(8)
        theta = rng.uniform(-1, 1, count_parameters(spec))
        latent = np.array([0.2, -0.5, 0.7, 0.1])  # two stacked passes
        got = pqc_forward(latent, theta, spec)
        gates = assemble_head_circuit(spec, rounds=2).gates
        psi = dense_run(gates, 2, params=theta, latent=latent)
        assert got == pytest.approx(dense_z(psi, 0, 2), abs=1e-12)

    def test_latent_width_mismatch(self):
        spec = CircuitSpec(qubits=4)
        with pytest.raises(ConfigurationError):
            pqc_forward(np.zeros(3), np.zeros(count_parameters(spec)), spec)

    def test_shot_noise_needs_rng(self):
        spec = CircuitSpec(qubits=2, main_layers=1, reupload_count=0)
        with pytest.raises(ConfigurationError):
            pqc_forward(np.zeros(2), np.zeros(2), spec, NoiseModel(0, 0, 100), None)

    @pytest.mark.parametrize("edit", ["repeat", "drop"])
    def test_a_step_needs_each_lifted_slot_read_by_one_gate(self, monkeypatch, edit):
        # the finite-shot half-turn values need each slot read once; every
        # sweep needs each slot read at all
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1, reupload_layers=1)
        honest = assemble_head_circuit(spec, 1)
        gates = list(honest.gates)
        if edit == "repeat":
            gates.insert(0, next(g for g in gates if g[0] == RY and g[2] == 0))
            noise, message = NoiseModel(shots=256), "column 0 is read by 2 RY gates"
        else:
            last = count_parameters(spec) - 1
            gates.remove(next(g for g in gates if g[0] == RY and g[2] == last))
            noise, message = None, f"{last} parameter slots but got {last + 1} parameters"
        monkeypatch.setattr(head_mod, "assemble_head_circuit",
                            lambda spec, rounds: GateList(honest.num_qubits, gates))
        enc = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=1)
        model = build_hybrid_head(enc, spec, seed=30)
        X = np.random.default_rng(30).standard_normal((2, 8))
        with pytest.raises(ConfigurationError, match=message):
            model.batch_loss_and_gradients(X, np.array([0, 1]), noise=noise)


class TestLinearLogits:
    def test_zero_weights(self):
        np.testing.assert_array_equal(
            linear_logits(np.array([0.1, 0.2]), 0.5, np.zeros((2, 3))), [0.0, 0.0]
        )

    def test_selects_measured_value(self):
        w = np.zeros((2, 3))
        w[:, 2] = 1.0
        np.testing.assert_allclose(linear_logits(np.array([0.1, 0.2]), 0.7, w), [0.7, 0.7])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            linear_logits(np.array([0.1, 0.2]), 0.5, np.zeros((2, 4)))

    def test_parameter_count_ten_qubits_two_classes(self):
        w = np.zeros((2, 11))
        assert w.size == 22


class TestParameterCounts:
    @pytest.mark.parametrize("qubits,total", [(10, 353), (12, 423), (14, 493), (18, 633)])
    def test_single_encoder_reference_totals(self, qubits, total):
        enc = EncoderConfig(num_encoders=1, encoder_qubits=qubits, encoder_layers=27,
                            extra_rotation=True)
        spec = CircuitSpec(qubits=qubits, main_layers=2, reupload_count=4, reupload_layers=1)
        assert count_head_parameters(enc, spec, num_classes=2) == total

    def test_reference_slope_arithmetic(self):
        # published totals step by 35 per qubit; circuit+linear contribute
        # (M + R*N) + k = 8, leaving 27 per qubit to the encoder stage
        assert (423 - 353) // 2 == 35
        assert (633 - 423) // 6 == 35
        assert (2 + 4 * 1) + 2 == 8
        assert 35 - 8 == 27

    def test_count_matches_live_arrays(self):
        enc = EncoderConfig(num_encoders=2, encoder_qubits=4, encoder_layers=3)
        spec = CircuitSpec(qubits=4, main_layers=1, reupload_count=2)
        model = build_hybrid_head(enc, spec, num_classes=3, seed=11)
        from qhead.trainer import count_model_parameters

        assert count_model_parameters(model) == count_head_parameters(enc, spec, 3)

    def test_no_final_linear_delta(self):
        enc = EncoderConfig(num_encoders=1, encoder_qubits=5, encoder_layers=2)
        spec = CircuitSpec(qubits=5, main_layers=1, reupload_count=1)
        with_lin = count_head_parameters(enc, spec, 2, final_linear=True)
        without = count_head_parameters(enc, spec, 2, final_linear=False)
        assert with_lin - without == (5 + 1) * 2

    def test_closed_form_total(self):
        # E*(D*Qc + extra) + (M + R*N)*Q + (E*Qc + 1)*k
        for extra in (False, True):
            enc = EncoderConfig(num_encoders=2, encoder_qubits=4, encoder_layers=3,
                                extra_rotation=extra)
            spec = CircuitSpec(qubits=4, main_layers=2, reupload_count=3, reupload_layers=2)
            want = 2 * (3 * 4 + int(extra)) + (2 + 3 * 2) * 4 + (2 * 4 + 1) * 3
            assert count_head_parameters(enc, spec, num_classes=3) == want


@pytest.mark.parametrize("final_linear", [True, False])
@pytest.mark.parametrize("num_encoders", [1, 2])
def test_init_head_params_draws_the_class_models_values(num_encoders, final_linear):
    enc = EncoderConfig(num_encoders=num_encoders, encoder_qubits=3, encoder_layers=2)
    spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=2)
    for seed in (0, 4):
        params = init_head_params(enc, spec, rng=stream(seed, PARAM_INIT),
                                  final_linear=final_linear)
        arrays = build_hybrid_head(enc, spec, final_linear=final_linear,
                                   seed=seed).parameter_arrays()
        got = {f"encoder_{i}": t for i, t in enumerate(params.theta_c)}
        got["pqc"] = params.theta_q
        if params.linear is not None:
            got["linear"] = params.linear
        assert got.keys() == arrays.keys()
        for key, value in arrays.items():
            assert got[key].tobytes() == value.tobytes(), key


def test_init_head_params_without_linear_needs_two_classes():
    enc = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=1)
    spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
    with pytest.raises(ConfigurationError, match="requires 2 classes"):
        init_head_params(enc, spec, num_classes=3, final_linear=False)


class TestHeadForward:
    def test_no_linear_gives_antisymmetric_logits(self):
        enc = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=1)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        params = init_head_params(enc, spec, rng=stream(0, PARAM_INIT), final_linear=False)
        logits = head_forward(np.ones(8), params, enc, spec)
        assert logits[0] == -logits[1]

    def test_argmax_invariant_under_positive_scaling(self):
        enc = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=2)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        rng = np.random.default_rng(12)
        params = init_head_params(enc, spec, num_classes=3, rng=stream(5, PARAM_INIT))
        for _ in range(5):
            x = rng.standard_normal(8)
            base = head_forward(x, params, enc, spec)
            scaled = HeadParams(params.theta_c, params.theta_q, 7.3 * params.linear)
            other = head_forward(x, scaled, enc, spec)
            assert np.argmax(base) == np.argmax(other)

    def test_matches_class_model(self):
        enc = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=1)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        model = build_hybrid_head(enc, spec, seed=9)
        x = np.linspace(-1, 1, 8)
        params = HeadParams(model.encoder.theta, model.theta_q, model.linear)
        np.testing.assert_allclose(
            head_forward(x, params, enc, spec),
            model.predict_logits(np.array([x]))[0],
            atol=1e-14,
        )


class TestEncoderBackward:
    def test_adjoint_and_shift_agree(self):
        cfg = EncoderConfig(num_encoders=1, encoder_qubits=4, encoder_layers=2)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(16)
        theta = rng.uniform(-math.pi, math.pi, cfg.params_per_encoder)
        dlatent = rng.standard_normal(4)
        a = encoder_backward(x, theta, cfg, dlatent, method="adjoint")
        b = encoder_backward(x, theta, cfg, dlatent, method="shift")
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_matches_finite_differences(self):
        cfg = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=2)
        rng = np.random.default_rng(14)
        x = rng.standard_normal(8)
        theta = rng.uniform(-math.pi, math.pi, cfg.params_per_encoder)
        dlatent = rng.standard_normal(3)
        grads = encoder_backward(x, theta, cfg, dlatent)
        h = 1e-5
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (
                dlatent @ encoder_forward(x, tp, cfg)
                - dlatent @ encoder_forward(x, tm, cfg)
            ) / (2 * h)
            assert grads[j] == pytest.approx(fd, abs=1e-6)


def _flat_loss(model, X, y, noise=None):
    logits = model.predict_logits(X, noise=noise)
    total = 0.0
    for row, label in zip(logits, y):
        (loss,), _ = softmax_cross_entropy_batch(row[None], np.array([label]))
        total += float(loss)
    return total / len(y)


class TestEndToEndGradient:
    def _check_model(self, model, X, y, tol=1e-4):
        _, grads = model.batch_loss_and_gradients(X, y)
        arrays = model.parameter_arrays()
        h = 1e-5
        worst = 0.0
        for key, arr in arrays.items():
            flat = arr.reshape(-1)
            gflat = grads[key].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = _flat_loss(model, X, y)
                flat[j] = orig - h
                down = _flat_loss(model, X, y)
                flat[j] = orig
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(fd - gflat[j]))
        assert worst < tol

    def test_full_head_q4(self):
        enc = EncoderConfig(num_encoders=1, encoder_qubits=4, encoder_layers=1)
        spec = CircuitSpec(qubits=4, main_layers=1, reupload_count=1)
        model = build_hybrid_head(enc, spec, seed=21)
        rng = np.random.default_rng(22)
        X = rng.standard_normal((3, 16))
        y = np.array([0, 1, 0])
        self._check_model(model, X, y)

    def test_no_linear_head(self):
        enc = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=1)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        model = build_hybrid_head(enc, spec, final_linear=False, seed=23)
        rng = np.random.default_rng(24)
        X = rng.standard_normal((2, 8))
        y = np.array([1, 0])
        self._check_model(model, X, y)

    def test_multi_encoder_head(self):
        enc = EncoderConfig(num_encoders=2, encoder_qubits=3, encoder_layers=1)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        model = build_hybrid_head(enc, spec, seed=25)
        rng = np.random.default_rng(26)
        X = rng.standard_normal((2, 8))
        y = np.array([0, 1])
        self._check_model(model, X, y)


class TestNoisyGradients:
    def test_deterministic_per_seed_path(self):
        enc = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=1)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        model = build_hybrid_head(enc, spec, seed=31)
        noise = NoiseModel(p1q=1e-3, p2q=1e-2, shots=256, seed=77)
        rng = np.random.default_rng(32)
        X = rng.standard_normal((4, 8))
        y = np.array([0, 1, 1, 0])
        la, ga = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=(3, 1))
        lb, gb = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=(3, 1))
        assert la == lb
        for key in ga:
            np.testing.assert_array_equal(ga[key], gb[key])

    def test_noisy_gradient_tracks_noiseless(self):
        # generous shots and tiny rates: the CRN estimate stays near the truth
        enc = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=1)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        model = build_hybrid_head(enc, spec, seed=33)
        rng = np.random.default_rng(34)
        X = rng.standard_normal((4, 8))
        y = np.array([0, 1, 0, 1])
        _, clean = model.batch_loss_and_gradients(X, y)
        noise = NoiseModel(p1q=1e-5, p2q=1e-5, shots=10_000_000, seed=5)
        _, noisy = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=(0, 0))
        for key in clean:
            np.testing.assert_allclose(noisy[key], clean[key], atol=2e-3)

    def test_zero_noise_model_bit_identical(self):
        enc = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=1)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        model = build_hybrid_head(enc, spec, seed=35)
        rng = np.random.default_rng(36)
        X = rng.standard_normal((3, 8))
        y = np.array([0, 1, 0])
        la, ga = model.batch_loss_and_gradients(X, y, noise=None)
        lb, gb = model.batch_loss_and_gradients(X, y, noise=NoiseModel(0, 0, None, seed=9))
        assert la == lb
        for key in ga:
            np.testing.assert_array_equal(ga[key], gb[key])


class TestFunctionalGradientWrapper:
    def test_shapes(self):
        enc = EncoderConfig(num_encoders=2, encoder_qubits=3, encoder_layers=1)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        params = init_head_params(enc, spec, rng=stream(3, PARAM_INIT))
        rng = np.random.default_rng(41)
        X = rng.standard_normal((2, 8))
        loss, grads = head_gradient(X, np.array([0, 1]), params, enc, spec)
        assert loss > 0
        assert len(grads.theta_c) == 2
        assert grads.theta_q.shape == params.theta_q.shape
        assert grads.linear.shape == params.linear.shape


@pytest.mark.parametrize("kwargs, message", [
    ({"num_encoders": 0}, "need at least one encoder, got 0"),
    ({"encoder_qubits": 0}, "encoder qubits must be >= 1, got 0"),
    ({"encoder_layers": -1}, "encoder layers must be >= 0, got -1"),
    ({"encoder_qubits": 3, "connectivity": 3}, "encoder connectivity must satisfy 1 <= C < Qc, got 3"),
])
def test_encoder_config_rejects_bad_shapes(kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        EncoderConfig(**kwargs)


def test_head_wider_than_the_simulator_is_rejected():
    from qhead.baselines import MlpConfig, MlpEncoder

    encoder = MlpEncoder(4, 25, MlpConfig(), stream(1, PARAM_INIT))
    with pytest.raises(ConfigurationError, match="wider than 24 qubits cannot be simulated, got 25"):
        head_mod.HybridHead(encoder, CircuitSpec(qubits=25), rng=stream(1, PARAM_INIT))


class TestCheckpointRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        enc = EncoderConfig(num_encoders=1, encoder_qubits=3, encoder_layers=2)
        spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
        model = build_hybrid_head(enc, spec, seed=51)
        path = tmp_path / "params.qhd1"
        save_checkpoint(path, model.parameter_arrays(), meta="seed = 51")
        arrays, meta = load_checkpoint(path)
        assert meta == "seed = 51"
        for key, arr in model.parameter_arrays().items():
            np.testing.assert_array_equal(arrays[key], arr)
        other = build_hybrid_head(enc, spec, seed=52)
        load_parameters(other, arrays)
        x = np.ones((1, 8))
        np.testing.assert_array_equal(other.predict_logits(x), model.predict_logits(x))

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.qhd1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        from qhead.errors import DataFormatError

        with pytest.raises(DataFormatError, match="byte 0"):
            load_checkpoint(path)

    def test_dims_whose_product_wraps_report_truncation(self, wrapping_checkpoint):
        from qhead.errors import DataFormatError

        with pytest.raises(DataFormatError, match="truncated checkpoint: needed "
                                                  f"{8 * (2**32 - 1) ** 2} bytes"):
            load_checkpoint(wrapping_checkpoint)

    @pytest.mark.parametrize("damage, message", [
        (lambda blob: blob[:4] + (2).to_bytes(4, "little") + blob[8:],
         "unsupported checkpoint version 2 at byte 4"),
        (lambda blob: blob + b"\x00\x00\x00", "checkpoint has 3 trailing bytes"),
    ], ids=["version_2", "trailing_bytes"])
    def test_damaged_checkpoint_rejected(self, tmp_path, damage, message):
        from qhead.errors import DataFormatError

        path = tmp_path / "damaged.qhd1"
        save_checkpoint(path, {"a": np.arange(4.0)})
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataFormatError, match=message):
            load_checkpoint(path)

    def test_array_name_longer_than_the_header_field_rejected(self, tmp_path):
        from qhead.errors import DataFormatError

        with pytest.raises(DataFormatError, match="array name too long"):
            save_checkpoint(tmp_path / "long.qhd1", {"a" * 65536: np.zeros(1)})
        assert not (tmp_path / "long.qhd1").exists()

    def test_truncation_reports_lengths(self, tmp_path):
        path = tmp_path / "trunc.qhd1"
        save_checkpoint(path, {"a": np.arange(4.0)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        from qhead.errors import DataFormatError

        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)


def _named_arrays(params):
    """HeadParams as the class model's named parameter arrays."""
    arrays = {f"encoder_{i}": t for i, t in enumerate(params.theta_c)}
    arrays["pqc"] = params.theta_q
    if params.linear is not None:
        arrays["linear"] = params.linear
    return arrays


@pytest.mark.parametrize("noise", [None, NoiseModel(p1q=0.2, p2q=0.2, shots=500, seed=8)],
                         ids=["noiseless", "noisy-500-shots"])
@pytest.mark.parametrize("final_linear", [True, False])
@pytest.mark.parametrize("num_encoders", [1, 2])
def test_head_gradient_equals_the_class_model_loaded_with_the_same_arrays(
        num_encoders, final_linear, noise):
    enc = EncoderConfig(num_encoders=num_encoders, encoder_qubits=3, encoder_layers=2)
    spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=2)
    params = init_head_params(enc, spec, rng=stream(17, PARAM_INIT), final_linear=final_linear)
    X = np.random.default_rng(18).standard_normal((5, 8))
    y = np.array([0, 1, 1, 0, 1])
    loss, grads = head_gradient(X, y, params, enc, spec, noise=noise, seed_path=(2, 1))
    # a head drawn from another seed, so that only the loaded values can match
    model = build_hybrid_head(enc, spec, final_linear=final_linear, seed=99)
    load_parameters(model, _named_arrays(params))
    want_loss, want = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=(2, 1))
    assert loss == want_loss
    got = _named_arrays(grads)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("change, message", [
    ("one encoder vector too few", "parameter names"),
    ("one encoder vector too many", "parameter names"),
    ("encoder vector too long", "'encoder_1' has shape"),
    ("theta_q too short", "'pqc' has shape"),
    ("linear too narrow", "'linear' has shape"),
    ("linear missing a class", "'linear' has shape"),
])
def test_head_gradient_rejects_params_that_do_not_fit_the_head(change, message):
    from dataclasses import replace

    enc = EncoderConfig(num_encoders=2, encoder_qubits=3, encoder_layers=1)
    spec = CircuitSpec(qubits=3, main_layers=1, reupload_count=1)
    params = init_head_params(enc, spec, rng=stream(3, PARAM_INIT))
    bad = {
        "one encoder vector too few": replace(params, theta_c=params.theta_c[:1]),
        "one encoder vector too many": replace(params, theta_c=params.theta_c * 2),
        "encoder vector too long": replace(
            params, theta_c=[params.theta_c[0], np.append(params.theta_c[1], 0.5)]),
        "theta_q too short": replace(params, theta_q=params.theta_q[:-1]),
        "linear too narrow": replace(params, linear=params.linear[:, :-1]),
        "linear missing a class": replace(params, linear=params.linear[:1]),
    }[change]
    X = np.random.default_rng(41).standard_normal((2, 8))
    with pytest.raises(ConfigurationError, match=message):
        head_gradient(X, np.array([0, 1]), bad, enc, spec)


@pytest.mark.parametrize("field, at", [("metadata", 13), ("array name", 18)])
def test_checkpoint_text_that_is_not_utf8_names_its_byte(tmp_path, field, at):
    from qhead.errors import DataFormatError

    path = tmp_path / "bad.qhd1"
    save_checkpoint(path, {"w": np.arange(3.0)}, meta="abc" if field == "metadata" else "")
    blob = bytearray(path.read_bytes())
    blob[at] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match=f"{field}: line 1 is not UTF-8 \\(byte {at}\\)"):
        load_checkpoint(path)


# chi-squared upper 1e-4 quantiles: with 16 degrees of freedom P(X > 45.92)
# = 1.0e-4, from the closed form exp(-x/2) sum_{i<8} (x/2)^i / i! of its
# survival function; with 21, P(X > 53.96) = 1.0e-4, from the series of the
# regularized lower incomplete gamma function P(10.5, x/2)
CHI2_16_UPPER_1E4 = 45.92
CHI2_21_UPPER_1E4 = 53.96
CHANNEL_NOISE = dict(p1q=0.02, p2q=0.05, seed=3)


@functools.cache
def _exact_channel(n):
    """A head of width n, one latent, and the channel's exact value and
    gradients [E, dE/dtheta_q, dE/dlatent] there, from the package's
    density-matrix reference run on the plan circuit.

    Also returns the largest |E| at the latent and at its +/- pi/2 shifts.
    """
    spec = CircuitSpec(qubits=n, main_layers=2, reupload_layers=1, reupload_count=2)
    model = build_hybrid_head(EncoderConfig(1, n, 1), spec, seed=0)
    plan = model.plan
    latent = np.random.default_rng(0).uniform(-1, 1, n)
    ext = np.concatenate([model.theta_q, latent[plan.occurrences]])
    noise = NoiseModel(p1q=CHANNEL_NOISE["p1q"], p2q=CHANNEL_NOISE["p2q"])

    def exact(e):  # e = concat(theta_q, the occurrence angles)
        return depolarizing_reference_expectation(plan.circuit, e[: plan.n_params], noise,
                                                  latent=e[plan.n_params :])

    turns = (math.pi / 2) * np.eye(ext.size)
    plus = np.array([exact(ext + t) for t in turns])
    minus = np.array([exact(ext - t) for t in turns])
    value = exact(ext)
    g_ext = (plus - minus) / 2.0
    g_latent = np.zeros(n)
    np.add.at(g_latent, plan.occurrences, g_ext[plan.n_params :])
    want = np.concatenate([[value], g_ext[: plan.n_params], g_latent])
    return model, latent, want, max(abs(value), np.abs(plus).max(), np.abs(minus).max())


def _channel_scores(n, shots, samples=4000):
    """z_c = (sample mean - exact) / standard error of each component, over
    ``samples`` noisy rows of one latent through ``HybridHead._circuit``."""
    model, latent, want, _ = _exact_channel(n)
    noise = NoiseModel(shots=shots, **CHANNEL_NOISE)
    z, g_theta, g_lat = model._circuit(np.tile(latent, (samples, 1)), noise, (0,), grads=True)
    drawn = np.column_stack([z, g_theta, g_lat])
    assert drawn.shape == (samples, want.size)
    return (drawn.mean(axis=0) - want) / (drawn.std(axis=0, ddof=1) / math.sqrt(samples))


@pytest.mark.parametrize("shots", [None, 1000])
def test_noisy_route_averages_to_the_exact_channel(shots):
    """Values and gradients of many noisy samples of one latent, against the
    depolarizing channel's exact value from ``depolarizing_reference_expectation``.

    With the channel after each gate, each slot of ext = concat(theta_q,
    latent[occurrences]) still enters E as one frequency, so the shift rule
    gives the channel's exact gradient; dz/dlatent sums the slots of each
    entry. The N samples go through ``HybridHead._circuit``, each on its own
    trajectory and shot streams. The decision rule was fixed before the first
    run: over the 1 + P + L = 16 components, z_c = (sample mean - exact) /
    standard error; the sum of z_c^2 stays below the chi-squared(16) upper
    1e-4 quantile, and every |z_c| below 4.5.
    """
    # |E| well below 1, where the shot sampler's clamp would bias the mean
    assert _exact_channel(3)[3] < 0.5
    scores = _channel_scores(3, shots)
    assert scores.size == 16
    assert np.sum(scores**2) < CHI2_16_UPPER_1E4 and np.abs(scores).max() < 4.5, scores


@pytest.mark.parametrize("shots", [None, 1000])
def test_noisy_route_averages_to_the_exact_channel_at_four_qubits(shots):
    """The test above at Q = Qc = 4, M = 2, R = 2, N = 1: 1 + P + L = 21
    components. The rule was fixed before the first run: the sum of z_c^2
    below the chi-squared(21) upper 1e-4 quantile, every |z_c| below 4.5.
    The reference's exact values are computed once for both shot counts.
    """
    assert _exact_channel(4)[3] < 0.5
    scores = _channel_scores(4, shots)
    assert scores.size == 21
    assert np.sum(scores**2) < CHI2_21_UPPER_1E4 and np.abs(scores).max() < 4.5, scores

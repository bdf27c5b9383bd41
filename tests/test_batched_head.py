"""The batched head against a per-sample reference built from single complex rows.

The reference runs every sample alone: the encoders through ``encoder_forward``
and ``encoder_backward`` (complex128 states), the noiseless circuit through
``evaluate_expectation`` and a one-row complex adjoint sweep, and the noisy
circuit through ``_pqc_value`` / ``_pqc_value_and_grads`` on the sample's own
trajectory and shot streams. Only the readout is the head's own formula, one
matmul over the stacked features.
"""
from __future__ import annotations

import numpy as np
import pytest

from qhead import head as head_mod
from qhead import noise as noise_mod
from qhead.ansatz import PAULI, CircuitSpec, assemble_head_circuit
from qhead.baselines import MlpConfig, MlpEncoder
from qhead.datasets import make_count_splits, synthetic_clusters
from qhead.errors import ConfigurationError
from qhead.grad import (
    adjoint_observable_gradients,
    evaluate_expectation,
    run_gates,
    trajectory_expectation,
)
from qhead.head import (
    EncoderConfig,
    HybridHead,
    _plan_pqc,
    _run_rows,
    build_hybrid_head,
)
from qhead.noise import NoiseModel, gaussian_shot_estimate, sample_pauli_insertions
from qhead.seeding import PARAM_INIT, SHOTS, TRAJECTORY, stream
from qhead.simcore import zero_state
from qhead.trainer import TrainConfig, load_parameters, softmax_cross_entropy_batch, train

from oracles import dense_run, dense_z
from reference import (
    _noisy_sample,
    _pqc_value,
    _pqc_value_and_grads,
    encoder_backward,
    encoder_forward,
)

SPEC = CircuitSpec(qubits=4, main_layers=1, reupload_count=2, reupload_layers=1)
HEAVY_NOISE = dict(p1q=0.2, p2q=0.2, seed=11)
SEED_PATH = (2, 3)


def _quantum_head(num_encoders=1, final_linear=True, seed=5):
    enc = EncoderConfig(num_encoders=num_encoders, encoder_qubits=4, encoder_layers=2)
    return build_hybrid_head(enc, SPEC, final_linear=final_linear, seed=seed)


def _mlp_head(seed=6):
    rng = stream(seed, PARAM_INIT)
    encoder = MlpEncoder(16, 4, MlpConfig(hidden_layers=1, hidden_dim=5), rng)
    return HybridHead(encoder, SPEC, rng=rng)


HEADS = {
    "clean": (_quantum_head, None),
    "noisy-exact": (_quantum_head, NoiseModel(shots=None, **HEAVY_NOISE)),
    "noisy-500-shots": (_quantum_head, NoiseModel(shots=500, **HEAVY_NOISE)),
    "two-encoders": (lambda: _quantum_head(num_encoders=2), None),
    "two-encoders-noisy": (lambda: _quantum_head(num_encoders=2), NoiseModel(shots=500, **HEAVY_NOISE)),
    "no-linear": (lambda: _quantum_head(final_linear=False), None),
    "no-linear-noisy": (lambda: _quantum_head(final_linear=False), NoiseModel(shots=500, **HEAVY_NOISE)),
    "mlp-encoder": (_mlp_head, None),
    "mlp-encoder-noisy": (_mlp_head, NoiseModel(shots=None, **HEAVY_NOISE)),
}


def _streams(noise, i):
    if noise is None:
        return None, None
    return (stream(noise.seed, TRAJECTORY, *SEED_PATH, i),
            stream(noise.seed, SHOTS, *SEED_PATH, i))


def _sample_latent(model, x):
    encoder = model.encoder
    if isinstance(encoder, MlpEncoder):
        return encoder.forward(x)
    return np.concatenate([encoder_forward(x, t, encoder.config) for t in encoder.theta])


def _expanded(spec, latent_dim):
    """The spec's head circuit whose DATA records read the latent itself."""
    return assemble_head_circuit(spec, latent_dim // spec.qubits)


def _sample_circuit(model, latent, noise, i, grads):
    if noise is not None:
        run = _pqc_value_and_grads if grads else _pqc_value
        return run(model.plan, model.theta_q, latent, noise, *_streams(noise, i))
    expanded = _expanded(model.spec, latent.size)
    z = evaluate_expectation(expanded, model.theta_q, latent, 0)
    if not grads:
        return z
    final = run_gates(zero_state(model.spec.qubits).amplitudes, expanded, model.theta_q, latent)
    (gtheta,), (glatent,) = adjoint_observable_gradients(
        expanded, model.theta_q, latent, np.eye(model.spec.qubits)[0], final
    )
    return z, gtheta, glatent


def _readout(model, latents, z):
    if model.linear is None:
        return np.column_stack([z, -z]), None
    features = np.column_stack([latents, z])
    return features @ model.linear.T, features


def _reference_logits(model, X, noise):
    latents = np.stack([_sample_latent(model, x) for x in X])
    z = np.array([_sample_circuit(model, lat, noise, i, False) for i, lat in enumerate(latents)])
    return _readout(model, latents, z)[0], z


def _reference_step(model, X, y, noise):
    """Batch-mean loss and gradients, each sample's pieces computed alone."""
    latents = np.stack([_sample_latent(model, x) for x in X])
    per = [_sample_circuit(model, lat, noise, i, True) for i, lat in enumerate(latents)]
    z = np.array([p[0] for p in per])
    logits, features = _readout(model, latents, z)
    totals = {k: np.zeros_like(v) for k, v in model.parameter_arrays().items()}
    losses = []
    for i, x in enumerate(X):
        (loss,), (dlogits,) = softmax_cross_entropy_batch(logits[i][None], np.array([y[i]]))
        losses.append(float(loss))
        _, gtheta, glatent = per[i]
        if features is None:
            dz = dlogits[0] - dlogits[1]
            dlatent = dz * glatent
        else:
            totals["linear"] += np.outer(dlogits, features[i])
            dfeat = model.linear.T @ dlogits
            dz = dfeat[-1]
            dlatent = dfeat[:-1] + dz * glatent
        totals["pqc"] += dz * gtheta
        encoder = model.encoder
        if isinstance(encoder, MlpEncoder):
            for key, g in encoder.backward(encoder.forward(x, grads=True)[1], dlatent).items():
                totals[key] += g
        else:
            q = encoder.config.encoder_qubits
            for e, theta in enumerate(encoder.theta):
                totals[f"encoder_{e}"] += encoder_backward(
                    x, theta, encoder.config, dlatent[e * q : (e + 1) * q]
                )
    grads = {k: v / len(X) for k, v in totals.items()}
    return float(np.mean(losses)), grads, logits


@pytest.mark.parametrize("batch", [1, 5, 16])
@pytest.mark.parametrize("name", sorted(HEADS))
def test_batched_head_matches_per_sample_reference(name, batch):
    build, noise = HEADS[name]
    model = build()
    rng = np.random.default_rng(batch)
    X = rng.standard_normal((batch, 16))
    y = rng.integers(2, size=batch)

    loss, grads = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=SEED_PATH)
    ref_loss, ref_grads, ref_logits = _reference_step(model, X, y, noise)
    assert list(grads) == list(model.parameter_arrays())
    assert loss == pytest.approx(ref_loss, abs=1e-12)
    for key in ref_grads:
        np.testing.assert_allclose(grads[key], ref_grads[key], rtol=0, atol=1e-12)

    logits = model.predict_logits(X, noise=noise, seed_path=SEED_PATH)
    expected, _ = _reference_logits(model, X, noise)
    np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)
    if noise is not None and not isinstance(model.encoder, MlpEncoder):
        # quantum latents are exact bits, and the noisy circuit runs per
        # sample on unchanged streams (an MLP's batched matmul rounds
        # differently from its one-row products)
        np.testing.assert_array_equal(logits, expected)
        losses, _ = softmax_cross_entropy_batch(ref_logits, y)
        assert loss == float(losses.sum()) * (1.0 / batch)


def test_noisy_heads_insert_y():
    """The heavy-noise heads above do exercise Y insertions on real rows."""
    model = _quantum_head()
    noise = HEADS["noisy-exact"][1]
    ys = 0
    for i in range(5):
        traj, _ = _streams(noise, i)
        run_list = sample_pauli_insertions(model.plan.circuit, noise, traj)
        ys += sum(g[0] == PAULI and g[2] == "Y" for g in run_list.gates)
    assert ys > 0


@pytest.mark.parametrize("shots", [None, 500])
def test_noisy_rows_build_only_the_streams_they_draw_from(shots, monkeypatch):
    """Each noisy sample builds its TRAJECTORY stream, and its SHOTS stream
    only at finite shots."""
    model = _quantum_head()
    latent = model.encoder.forward(np.random.default_rng(27).standard_normal((5, 16)))
    tags = []

    def recorded(seed, *path):
        tags.append(path[0])
        return stream(seed, *path)

    monkeypatch.setattr("qhead.seeding.stream", recorded)
    model._circuit(latent, NoiseModel(shots=shots, **HEAVY_NOISE), SEED_PATH, grads=True)
    assert sorted(tags) == [TRAJECTORY] * 5 + [SHOTS] * (0 if shots is None else 5)


@pytest.mark.parametrize("shots", [None, 500])
def test_noisy_values_match_the_dense_oracle_on_their_trajectory(shots):
    """``_pqc_value`` and ``trajectory_expectation`` on real rows against complex
    dense matrices run over the same sampled gate list, Pauli records included.

    The reference samples the trajectory of the spec's latent-indexed expanded
    circuit from a fresh copy of the stream ``_pqc_value`` samples the lifted
    plan circuit from.
    """
    noise = NoiseModel(p1q=0.2, p2q=0.2, shots=shots, seed=13)
    ys = 0
    for q in (2, 3, 4):
        spec = CircuitSpec(qubits=q, main_layers=1, reupload_count=2, reupload_layers=1)
        plan = _plan_pqc(spec, q * (1 + q % 2))
        expanded = _expanded(spec, plan.latent_dim)
        rng = np.random.default_rng(q)
        for i in range(8):
            theta = rng.uniform(-np.pi, np.pi, plan.n_params)
            latent = rng.uniform(-1, 1, plan.latent_dim)
            run_list = sample_pauli_insertions(expanded, noise, stream(13, TRAJECTORY, q, i))
            ys += sum(g[0] == PAULI and g[2] == "Y" for g in run_list.gates)
            want = dense_z(dense_run(run_list.gates, q, theta, latent), 0, q)
            traj = trajectory_expectation(expanded, theta, latent, noise,
                                          stream(13, TRAJECTORY, q, i))
            assert abs(traj - want) <= 1e-12
            if shots is not None:
                eps = stream(13, SHOTS, q, i).standard_normal()
                want = float(gaussian_shot_estimate(want, shots, eps))
            got = _pqc_value(plan, theta, latent, noise,
                             stream(13, TRAJECTORY, q, i), stream(13, SHOTS, q, i))
            assert abs(got - want) <= 1e-12
    assert ys > 0


def test_noisy_circuit_values_are_bit_identical_per_sample():
    model = _quantum_head(final_linear=False)
    noise = HEADS["noisy-500-shots"][1]
    X = np.random.default_rng(3).standard_normal((7, 16))
    logits = model.predict_logits(X, noise=noise, seed_path=SEED_PATH)
    _, z = _reference_logits(model, X, noise)
    np.testing.assert_array_equal(logits[:, 0], z)


def test_no_linear_readout_is_fixed_weights():
    # the logits (z, -z) come from fixed readout weights that training leaves alone
    model = _quantum_head(final_linear=False)
    fixed = model.readout.copy()
    assert all(a is not model.readout for a in model.parameter_arrays().values())
    noise = HEADS["noisy-500-shots"][1]
    X = np.random.default_rng(8).standard_normal((7, 16))
    logits = model.predict_logits(X, noise=noise, seed_path=SEED_PATH)
    _, z = _reference_logits(model, X, noise)
    assert logits.tobytes() == np.column_stack([z, -z]).tobytes()
    data = make_count_splits(synthetic_clusters(dim=16, n_per_class=8, separation=4.0, seed=2),
                             4, 2, seed=1)
    theta_q = model.theta_q.copy()
    train(model, data, TrainConfig(learning_rate=0.1, batch_size=4, epochs=2, seed=1), noise)
    assert not np.array_equal(model.theta_q, theta_q)
    assert model.readout.tobytes() == fixed.tobytes()


def test_latents_and_clean_values_are_bit_identical_to_single_rows():
    model = _quantum_head(num_encoders=2)
    X = np.random.default_rng(4).standard_normal((9, 16))
    no_linear = HybridHead(model.encoder, SPEC, final_linear=False,
                           rng=np.random.default_rng(0))
    arrays = model.parameter_arrays()
    del arrays["linear"]
    load_parameters(no_linear, arrays)
    logits_no_linear = no_linear.predict_logits(X)
    latents = model.encoder.forward(X)
    expanded = _expanded(SPEC, model.plan.latent_dim)
    for i, x in enumerate(X):
        np.testing.assert_array_equal(latents[i], _sample_latent(model, x))
        z = evaluate_expectation(expanded, model.theta_q, latents[i], 0)
        assert logits_no_linear[i, 0] == z


@pytest.mark.parametrize("noise", [None, HEADS["noisy-500-shots"][1]])
def test_row_chunks_change_no_logit(noise, monkeypatch):
    model = _quantum_head(num_encoders=2)
    X = np.random.default_rng(10).standard_normal((7, 16))
    whole = model.predict_logits(X, noise=noise, seed_path=SEED_PATH)
    # two 4-qubit rows per chunk: chunks of 2, 2, 2 and 1 rows
    monkeypatch.setattr("qhead.grad._CHUNK_ELEMENTS", 2 << 4)
    np.testing.assert_array_equal(model.predict_logits(X, noise=noise, seed_path=SEED_PATH), whole)


@pytest.mark.parametrize("shots", [None, 500])
def test_noisy_step_in_row_chunks_is_bit_identical(shots, monkeypatch):
    """Sample i keeps its ``(*seed_path, i)`` streams when its rows run in chunks.

    The MLP encoder runs no row chunks, so every bit of the step comes from
    the circuit's rows (a quantum encoder's gradient sums its chunks in
    another order).
    """
    model = _mlp_head()
    noise = NoiseModel(shots=shots, **HEAVY_NOISE)
    rng = np.random.default_rng(26)
    X = rng.standard_normal((5, 16))
    y = rng.integers(2, size=5)
    whole_loss, whole = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=SEED_PATH)
    # two 4-qubit rows per chunk: chunks of 2, 2 and 1 rows
    monkeypatch.setattr("qhead.grad._CHUNK_ELEMENTS", 2 << 4)
    rows = []

    def counted(circuit, params, latents, grads):
        rows.append(len(latents))
        return _run_rows(circuit, params, latents, grads)

    monkeypatch.setattr("qhead.head._run_rows", counted)
    loss, grads = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=SEED_PATH)
    assert rows == [2, 2, 1]
    assert loss == whole_loss
    for key, g in whole.items():
        np.testing.assert_array_equal(grads[key], g)


@pytest.mark.parametrize("rows_per_chunk", [None, 2])
@pytest.mark.parametrize("shots", [None, 500])
def test_gradient_calls_per_row_chunk(shots, rows_per_chunk, monkeypatch):
    """A finite-shot step makes one half-turn pass per row chunk and no adjoint
    sweep; an infinite-shot step one sweep per chunk and no pass. Values make
    neither call, and chunked steps keep the whole batch's bits. A row chunk's
    shot estimates are one vector pass: three estimator calls (values, + rows,
    - rows) in a finite-shot step, one in finite-shot prediction."""
    model = _mlp_head()
    noise = NoiseModel(shots=shots, **HEAVY_NOISE)
    rng = np.random.default_rng(28)
    X = rng.standard_normal((5, 16))
    y = rng.integers(2, size=5)
    whole_loss, whole = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=SEED_PATH)
    chunks = [5]
    if rows_per_chunk is not None:  # chunks of 2, 2 and 1 rows
        monkeypatch.setattr("qhead.grad._CHUNK_ELEMENTS", rows_per_chunk << 4)
        chunks = [2, 2, 1]
    calls = []
    for name in ("adjoint_observable_gradients", "_batch_expectations"):
        original = getattr(head_mod, name)

        def counted(circuit, params, latent, *rest, name=name, original=original):
            calls.append((name, len(latent)))
            return original(circuit, params, latent, *rest)

        monkeypatch.setattr(head_mod, name, counted)
    estimates = []

    def estimate(z, shots, eps, original=noise_mod.gaussian_shot_estimate):
        estimates.append(len(z))
        return original(z, shots, eps)

    monkeypatch.setattr(noise_mod, "gaussian_shot_estimate", estimate)
    loss, grads = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=SEED_PATH)
    called = "adjoint_observable_gradients" if shots is None else "_batch_expectations"
    assert calls == [(called, rows) for rows in chunks]
    per_chunk = 0 if shots is None else 3
    assert estimates == [rows for rows in chunks for _ in range(per_chunk)]
    assert loss == whole_loss
    for key, g in whole.items():
        np.testing.assert_array_equal(grads[key], g)
    calls.clear()
    estimates.clear()
    model.predict_logits(X, noise=noise, seed_path=SEED_PATH)
    assert calls == []
    assert estimates == ([] if shots is None else chunks)


@pytest.mark.parametrize("grads", [False, True])
def test_noiseless_circuit_rows_run_in_chunks(grads, monkeypatch):
    """Values and gradients alike: no ``_run_rows`` call holds more than a chunk."""
    model = _quantum_head(num_encoders=2)
    latent = model.encoder.forward(np.random.default_rng(24).standard_normal((5, 16)))
    whole = model._circuit(latent, None, SEED_PATH, grads)
    # two 4-qubit rows per chunk: chunks of 2, 2 and 1 rows
    monkeypatch.setattr("qhead.grad._CHUNK_ELEMENTS", 2 << 4)
    rows = []

    def counted(circuit, params, latents, grads):
        rows.append(len(latents))
        return _run_rows(circuit, params, latents, grads)

    monkeypatch.setattr("qhead.head._run_rows", counted)
    chunked = model._circuit(latent, None, SEED_PATH, grads)
    assert rows == [2, 2, 1]
    if not grads:
        chunked, whole = (chunked,), (whole,)
    for got, want in zip(chunked, whole):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("rows_per_chunk", [None, 2])
@pytest.mark.parametrize("num_encoders", [1, 2])
def test_one_encoder_forward_pass_per_step(num_encoders, rows_per_chunk, monkeypatch):
    """A step runs each encoder's circuit once per row chunk; ``backward`` runs none."""
    model = _quantum_head(num_encoders=num_encoders)
    rng = np.random.default_rng(23)
    X = rng.standard_normal((5, 16))
    y = rng.integers(2, size=5)
    whole_loss, whole = model.batch_loss_and_gradients(X, y)
    chunks = 1
    if rows_per_chunk is not None:  # chunks of 2, 2 and 1 rows
        monkeypatch.setattr("qhead.grad._CHUNK_ELEMENTS", rows_per_chunk << 4)
        chunks = 3
    encoder = model.encoder
    calls = []

    def counted(amps, circuit, *args):
        calls.append(circuit is encoder.circuit)
        return run_gates(amps, circuit, *args)

    monkeypatch.setattr("qhead.head.run_gates", counted)
    loss, grads = model.batch_loss_and_gradients(X, y)
    assert sum(calls) == num_encoders * chunks
    assert loss == whole_loss
    for key, g in whole.items():
        np.testing.assert_allclose(grads[key], g, rtol=0, atol=1e-15)
    _, saved = encoder.forward(X, grads=True)
    calls.clear()
    encoder.backward(saved, np.ones((len(X), encoder.latent_dim)))
    assert calls == []


def test_finite_shot_steps_follow_in_place_parameter_updates():
    """No step reuses work from values the head no longer holds.

    After ``theta_q`` changes in place (as ``trainer.adam_step`` updates it)
    and after ``load_parameters``, a finite-shot step has the bits of a
    freshly built head holding the same values; step 0 run again after step
    1 repeats step 0's bits.
    """
    noise = HEADS["noisy-500-shots"][1]
    rng = np.random.default_rng(21)
    X = rng.standard_normal((3, 16))
    y = rng.integers(2, size=3)

    def step(model, i):
        return model.batch_loss_and_gradients(X, y, noise=noise, seed_path=(0, i))

    def fresh_copy(model):
        fresh = _quantum_head(seed=0)
        load_parameters(fresh, {k: v.copy() for k, v in model.parameter_arrays().items()})
        return fresh

    def assert_same(a, b):
        assert a[0] == b[0] and a[1].keys() == b[1].keys()
        for key in a[1]:
            np.testing.assert_array_equal(a[1][key], b[1][key])

    model = _quantum_head()
    first = step(model, 0)
    step(model, 1)
    assert_same(step(model, 0), first)
    model.theta_q -= 0.3 * first[1]["pqc"]
    moved = step(model, 0)
    assert moved[0] != first[0]
    assert_same(moved, step(fresh_copy(model), 0))
    load_parameters(model, _quantum_head(seed=8).parameter_arrays())
    assert_same(step(model, 1), step(fresh_copy(model), 1))
    assert_same(step(model, 1), step(_quantum_head(seed=8), 1))


@pytest.mark.parametrize("name", ["clean", "noisy-500-shots"])
def test_empty_batch(name):
    build, noise = HEADS[name]
    model = build()
    X = np.zeros((0, 16))
    loss, grads = model.batch_loss_and_gradients(X, np.zeros(0, dtype=int), noise=noise)
    assert loss == 0.0
    for key, arr in model.parameter_arrays().items():
        np.testing.assert_array_equal(grads[key], np.zeros_like(arr))
    assert model.predict_logits(X, noise=noise).shape == (0, 2)


def test_single_input_encoder_calls_keep_their_shapes():
    model = _quantum_head(num_encoders=2)
    x = np.random.default_rng(8).standard_normal(16)
    latent = model.encoder.forward(x)
    assert latent.shape == (8,)
    np.testing.assert_array_equal(latent, model.encoder.forward(x[None])[0])
    dlatent = np.linspace(-1, 1, 8)
    single = model.encoder.backward(model.encoder.forward(x, grads=True)[1], dlatent)
    batched = model.encoder.backward(model.encoder.forward(x[None], grads=True)[1], dlatent[None])
    for key in single:
        assert single[key].shape == model.encoder.parameter_arrays()[key].shape
        np.testing.assert_array_equal(single[key], batched[key])


def test_batched_step_keeps_out_of_range_labels_an_error():
    model = _quantum_head()
    X = np.random.default_rng(9).standard_normal((3, 16))
    with pytest.raises(ConfigurationError, match="label -1"):
        model.batch_loss_and_gradients(X, np.array([0, -1, 1]))
    with pytest.raises(ConfigurationError, match="label 2"):
        model.batch_loss_and_gradients(X, np.array([0, 2, 1]))


@pytest.mark.parametrize("final_linear", [True, False])
@pytest.mark.parametrize("num_encoders", [1, 2])
def test_noiseless_noisy_sample_matches_the_clean_route(num_encoders, final_linear):
    """Without noise, a noisy sample's one row and sweep give the clean batch's numbers.

    The reference runs the lifted plan circuit with every angle in one vector,
    the head the plan circuit with shared trainable angles; both sum the
    occurrences of each latent entry in occurrence order. A step under a
    noise model with zero rates and infinite shots has the clean step's bits.
    """
    model = _quantum_head(num_encoders=num_encoders, final_linear=final_linear)
    X = np.random.default_rng(12).standard_normal((6, 16))
    y = np.array([0, 1, 1, 0, 1, 0])
    latents = model.encoder.forward(X)
    z, gtheta, glatent = model._circuit(latents, None, SEED_PATH, grads=True)
    noise = NoiseModel(0, 0, None)
    for i, latent in enumerate(latents):
        got = _noisy_sample(model.plan, model.theta_q, latent, noise, None, None, grads=True)
        assert got[0] == z[i]
        np.testing.assert_array_equal(got[1], gtheta[i])
        np.testing.assert_array_equal(got[2], glatent[i])
        assert _noisy_sample(model.plan, model.theta_q, latent, noise, None, None,
                             grads=False) == z[i]
    clean_loss, clean_grads = model.batch_loss_and_gradients(X, y)
    loss, grads = model.batch_loss_and_gradients(X, y, noise=noise, seed_path=SEED_PATH)
    assert loss == clean_loss
    for key, g in clean_grads.items():
        np.testing.assert_array_equal(grads[key], g)


@pytest.mark.parametrize("name", ["clean", "noisy-exact", "no-linear", "no-linear-noisy"])
def test_encoder_latents_of_another_width_are_rejected(name):
    build, noise = HEADS[name]
    model = build()
    forward = model.encoder.forward

    def wider(X, grads=False):
        out = forward(X, grads)
        latent = np.column_stack([out[0] if grads else out, np.zeros(len(X))])
        return (latent, out[1]) if grads else latent

    model.encoder.forward = wider
    X = np.random.default_rng(13).standard_normal((3, 16))
    with pytest.raises(ConfigurationError, match=r"latents of shape \(rows, 4\)"):
        model.predict_logits(X, noise=noise)
    with pytest.raises(ConfigurationError, match=r"latents of shape \(rows, 4\)"):
        model.batch_loss_and_gradients(X, np.array([0, 1, 1]), noise=noise)

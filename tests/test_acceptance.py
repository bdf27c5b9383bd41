"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; the smoke-test data preparation
(train-split PCA to 8 components plus a constant anchor feature) bridges the
768-dimensional clusters into the 6-qubit register, see README.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from qhead.ansatz import (
    PAULI,
    CircuitSpec,
    GateList,
    assemble_head_circuit,
    count_parameters,
)
from qhead.baselines import LogisticModel, MlpConfig, MlpHead
from qhead.cli import main as cli_main
from qhead.datasets import (
    append_anchor_feature,
    make_count_splits,
    pca_project,
    save_embeddings_binary,
    synthetic_clusters,
)
from qhead.energy import find_crossover
from qhead.grad import (
    adjoint_gradient,
    parameter_shift_gradient,
    run_gates,
    trajectory_expectation,
)
from qhead.head import EncoderConfig, build_hybrid_head
from qhead.noise import (
    NoiseModel,
    depolarizing_reference_expectation,
    gaussian_shot_estimate,
    multinomial_z_estimate,
    sample_pauli_insertions,
)
from qhead.seeding import SHOTS, TRAJECTORY, stream
from qhead.simcore import apply_cnot, apply_pauli, apply_ry, z_expectation, zero_state
from qhead.trainer import TrainConfig, count_model_parameters, softmax_cross_entropy_batch, train

from reference import _pqc_value_and_grads, count_head_parameters, lift_plan


def _report(criterion: int, detail: str) -> None:
    print(f"\n[acceptance {criterion}] PASS: {detail}")


# ---------------------------------------------------------------------------
# shared smoke dataset: 768-dim separable clusters, PCA'd into the register


@pytest.fixture(scope="module")
def smoke_split():
    ds = synthetic_clusters(dim=768, n_per_class=60, separation=10.0, seed=101)
    split = make_count_splits(ds, train_per_class=24, val_per_class=8, seed=101)
    return append_anchor_feature(pca_project(split, 8), value=6.0)


@pytest.fixture(scope="module")
def smoke_file(smoke_split, tmp_path_factory):
    path = tmp_path_factory.mktemp("smoke") / "smoke.emb"
    save_embeddings_binary(smoke_split, path)
    return path


def _smoke_head_pieces():
    encoder = EncoderConfig(num_encoders=1, encoder_qubits=6, encoder_layers=3)
    spec = CircuitSpec(qubits=6, main_layers=2, reupload_count=4, reupload_layers=1)
    return encoder, spec


# ---------------------------------------------------------------------------
# 1. gradient correctness


def _random_head(rng):
    q = int(rng.integers(2, 7))
    encoders = int(rng.integers(1, 3))
    encoder = EncoderConfig(
        num_encoders=encoders,
        encoder_qubits=q,
        encoder_layers=int(rng.integers(0, 3)),
        connectivity=int(rng.integers(1, max(min(3, q - 1), 1) + 1)) if q > 1 else 1,
        extra_rotation=bool(rng.integers(2)),
    )
    spec = CircuitSpec(
        qubits=q,
        connectivity=int(rng.integers(1, max(min(3, q - 1), 1) + 1)),
        main_layers=int(rng.integers(0, 3)),
        reupload_layers=int(rng.integers(0, 3)),
        reupload_count=int(rng.integers(0, 3)),
    )
    final_linear = bool(rng.integers(2))
    model = build_hybrid_head(encoder, spec, num_classes=2, final_linear=final_linear,
                              seed=int(rng.integers(1_000_000)))
    return model, encoder, spec


def _head_fd_deviation(model, X, y, h=1e-5):
    _, grads = model.batch_loss_and_gradients(X, y)

    def loss_now():
        logits = model.predict_logits(X)
        return float(np.mean([softmax_cross_entropy_batch(l[None], np.array([t]))[0][0]
                              for l, t in zip(logits, y)]))

    worst = 0.0
    for key, arr in model.parameter_arrays().items():
        flat = arr.reshape(-1)
        gflat = grads[key].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_now()
            flat[j] = orig - h
            down = loss_now()
            flat[j] = orig
            worst = max(worst, float(abs((up - down) / (2 * h) - gflat[j])))
    return worst


def _noisy_shift_deviation(model, latent, noise, trial, *path):
    """Gap between the noisy gradient path and its shift rows run one at a time.

    The reference builds each +/- pi/2 row by hand and runs it alone from
    |0...0> in complex128, under the same trajectory and, at finite shots,
    the same shot draws, from the streams ``(trial, TRAJECTORY|SHOTS, *path)``.
    Also returns the number of Y insertions in the trajectory.
    """
    plan = model.plan
    got = _pqc_value_and_grads(plan, model.theta_q, latent, noise,
                               stream(trial, TRAJECTORY, *path), stream(trial, SHOTS, *path))

    run_list = sample_pauli_insertions(lift_plan(plan.circuit, plan.n_params), noise,
                                       stream(trial, TRAJECTORY, *path))
    ext = np.concatenate([model.theta_q, latent[plan.occurrences]])
    total = ext.size
    rows = [ext]
    for sign in (1.0, -1.0):
        for j in range(total):
            row = ext.copy()
            row[j] += sign * math.pi / 2
            rows.append(row)
    vals = []
    for row in rows:
        sv = zero_state(model.spec.qubits)
        run_gates(sv.amplitudes, run_list, row)
        vals.append(z_expectation(sv, 0))
    vals = np.array(vals)
    z, plus, minus = vals[0], vals[1 : 1 + total], vals[1 + total :]
    if noise.shots is not None:
        shot = stream(trial, SHOTS, *path)
        z = gaussian_shot_estimate(z, noise.shots, shot.standard_normal())
        eps = shot.standard_normal(total)
        plus = gaussian_shot_estimate(plus, noise.shots, eps)
        minus = gaussian_shot_estimate(minus, noise.shots, eps)
    g = (plus - minus) / 2.0
    glatent = np.zeros(latent.size)
    np.add.at(glatent, plan.occurrences, g[plan.n_params :])
    deviation = max(abs(got[0] - float(z)),
                    float(np.max(np.abs(got[1] - g[: plan.n_params]), initial=0.0)),
                    float(np.max(np.abs(got[2] - glatent))))
    return deviation, sum(gate[0] == PAULI and gate[2] == "Y" for gate in run_list.gates)


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst_fd = 0.0
    worst_routes = 0.0
    worst_rows = 0.0
    worst_sweep = 0.0
    y_insertions = 0
    sweep_y_insertions = 0
    for trial in range(50):
        model, encoder, spec = _random_head(rng)
        dim = 1 << encoder.encoder_qubits
        X = rng.standard_normal((2, dim))
        y = rng.integers(2, size=2)
        worst_fd = max(worst_fd, _head_fd_deviation(model, X, y))
        latent = model.encoder.forward(X[0])
        deviation, ys = _noisy_shift_deviation(
            model, latent, NoiseModel(p1q=0.2, p2q=0.2, shots=1000), trial)
        worst_rows = max(worst_rows, deviation)
        y_insertions += ys
        # infinite shots: the gradient is one adjoint sweep over the trajectory
        deviation, ys = _noisy_shift_deviation(
            model, latent, NoiseModel(p1q=0.2, p2q=0.2), trial, 1)
        worst_sweep = max(worst_sweep, deviation)
        sweep_y_insertions += ys

        circuit = assemble_head_circuit(spec, encoder.latent_dim // spec.qubits)
        params = rng.uniform(-math.pi, math.pi, count_parameters(spec))
        latent = rng.uniform(-1, 1, encoder.latent_dim)
        shift = parameter_shift_gradient(circuit, params, latent)
        adjoint = adjoint_gradient(circuit, params, latent)
        if shift.size:
            worst_routes = max(worst_routes, float(np.max(np.abs(shift - adjoint))))
    elapsed = time.perf_counter() - started
    assert worst_fd < 1e-4
    assert worst_routes < 1e-8
    assert worst_rows < 1e-12 and y_insertions > 0
    assert worst_sweep < 1e-12 and sweep_y_insertions > 0
    assert elapsed < 300.0
    _report(1, f"50 random heads: end-to-end FD deviation {worst_fd:.2e} < 1e-4, "
               f"shift-vs-adjoint {worst_routes:.2e} < 1e-8, noisy shift rows vs "
               f"one-row reference {worst_rows:.2e} < 1e-12 (1000 shots), "
               f"{worst_sweep:.2e} < 1e-12 (infinite shots), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. simulator invariants


def test_criterion_2_simulator_invariants():
    rng = np.random.default_rng(777)
    worst_norm = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        sv = zero_state(n)
        for _ in range(int(rng.integers(5, 13))):
            kind = rng.integers(3)
            if kind == 0:
                apply_ry(sv, int(rng.integers(n)), float(rng.uniform(-math.pi, math.pi)))
            elif kind == 1 and n > 1:
                c = int(rng.integers(n))
                t = int(rng.integers(n - 1))
                apply_cnot(sv, c, t if t < c else t + 1)
            else:
                apply_pauli(sv, int(rng.integers(n)), "XYZ"[rng.integers(3)])
        worst_norm = max(worst_norm, abs(sv.norm() - 1.0))
    assert worst_norm < 1e-10

    worst_cos = 0.0
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=100):
        got = z_expectation(apply_ry(zero_state(1), 0, theta), 0)
        worst_cos = max(worst_cos, abs(got - math.cos(theta)))
    assert worst_cos < 1e-10
    _report(2, f"10^4 random sequences: norm drift {worst_norm:.2e} < 1e-10; "
               f"cos law deviation {worst_cos:.2e} < 1e-10")


# ---------------------------------------------------------------------------
# 3. shot sampler statistics


def test_criterion_3_shot_sampler_statistics():
    started = time.perf_counter()
    shots = 8192
    draws = 100_000
    rng = stream(31, SHOTS)
    ests = gaussian_shot_estimate(np.zeros(draws), shots, rng.standard_normal(draws))
    want_std = 1.0 / math.sqrt(shots)
    std_err = abs(ests.std(ddof=1) - want_std) / want_std
    assert std_err < 0.02

    # exact multinomial reference at the same shot count
    z_true = 0.0
    p_plus = (1.0 + z_true) / 2.0
    counts = stream(32, SHOTS).multinomial(shots, [p_plus, 1 - p_plus], size=draws)
    multi = (counts[:, 0] - counts[:, 1]) / shots
    mean_gap = abs(ests.mean() - multi.mean())
    var_gap = abs(ests.var(ddof=1) / multi.var(ddof=1) - 1.0)
    assert mean_gap < 0.03 * want_std
    assert var_gap < 0.03

    # the module-level estimator draws from the same law
    small = np.array([multinomial_z_estimate(z_true, shots, stream(33, SHOTS, i))
                      for i in range(2000)])
    assert abs(small.mean() - multi.mean()) < 5 * want_std / math.sqrt(2000)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(3, f"std within {std_err:.1%} of 1/sqrt(8192); Gaussian vs multinomial "
               f"variance gap {var_gap:.1%} < 3%, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. trajectory noise vs density-matrix oracle


def test_criterion_4_noise_oracle():
    started = time.perf_counter()
    one_q = GateList(1, [("ry", 0, 0), ("ry", 0, 1)])
    two_q = GateList(2, [("ry", 0, 0), ("ry", 1, 1), ("cnot", 0, 1),
                         ("ry", 1, 2), ("cnot", 1, 0)])
    cases = [(one_q, [0.7, -0.4]), (two_q, [0.9, -0.6, 1.3])]
    trajectories = 100_000
    details = []
    for p1q, p2q in [(1e-4, 1e-3), (2e-4, 2e-3)]:
        model = NoiseModel(p1q=p1q, p2q=p2q)
        for circuit, params in cases:
            want = depolarizing_reference_expectation(circuit, params, model=model)
            vals = np.fromiter(
                (trajectory_expectation(circuit, params, None, model,
                                        stream(900, TRAJECTORY, t))
                 for t in range(trajectories)),
                dtype=np.float64, count=trajectories,
            )
            stderr = vals.std(ddof=1) / math.sqrt(trajectories)
            gap = abs(vals.mean() - want)
            assert gap < 3 * stderr, (
                f"rates ({p1q}, {p2q}), {circuit.num_qubits}q: gap {gap:.2e} "
                f"vs 3 sigma {3 * stderr:.2e}"
            )
            details.append(f"{circuit.num_qubits}q@{p2q:g}: {gap / stderr:.2f} sigma")
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(4, f"10^5 trajectories within 3 sigma of the density-matrix oracle "
               f"({'; '.join(details)}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. parameter counts


def test_criterion_5_parameter_counts():
    init = np.random.default_rng(0)
    for qubits, total in [(10, 353), (12, 423), (18, 633)]:
        encoder = EncoderConfig(num_encoders=1, encoder_qubits=qubits, encoder_layers=27)
        spec = CircuitSpec(qubits=qubits, main_layers=2, reupload_count=4,
                           reupload_layers=1)
        assert count_head_parameters(encoder, spec, num_classes=2) == total
    assert count_model_parameters(LogisticModel(768)) == 769
    for config, count in [
        (MlpConfig(0, 0), 1_538),
        (MlpConfig(1, 48), 37_010),
        (MlpConfig(1, 96), 74_018),
    ]:
        assert count_model_parameters(MlpHead(768, 2, config, init)) == count
    _report(5, "single-encoder totals 353/423/633 and baseline counts "
               "769/1538/37010/74018 reproduced exactly")


# ---------------------------------------------------------------------------
# 6. energy crossover


def test_criterion_6_energy_crossover(tmp_path):
    crossover = find_crossover()
    assert crossover in (45, 46, 47)
    out = tmp_path / "energy.csv"
    assert cli_main(["energy", "--out", str(out)]) == 0
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("qubits")
    ]
    gpu = [float(r[2]) for r in rows]
    qpu = [float(r[1]) for r in rows]
    assert all(b > a for a, b in zip(gpu, gpu[1:]))
    signs = [g >= q for g, q in zip(gpu, qpu)]
    assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1
    _report(6, f"crossover at {crossover} qubits (reference 46); curve monotone "
               f"with a single sign change")


# ---------------------------------------------------------------------------
# 7. learning smoke test


def test_criterion_7_learning_smoke(smoke_split):
    started = time.perf_counter()
    encoder, spec = _smoke_head_pieces()
    config = TrainConfig(learning_rate=0.02, batch_size=16, epochs=100, seed=7)

    clean_model = build_hybrid_head(encoder, spec, seed=42)
    clean_report, _ = train(clean_model, smoke_split, config, noise=None)
    assert clean_report.test_accuracy >= 0.95
    assert clean_report.best_val_accuracy >= 0.95

    noisy_model = build_hybrid_head(encoder, spec, seed=42)
    noise = NoiseModel(p1q=1e-4, p2q=1e-3, shots=8192, seed=3)
    noisy_report, _ = train(noisy_model, smoke_split, config, noise=noise)
    assert noisy_report.test_accuracy >= 0.90

    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    _report(7, f"Q=Qc=6 head: noiseless test {clean_report.test_accuracy:.3f} >= 0.95, "
               f"noisy (1e-4, 1e-3, 8192 shots) test {noisy_report.test_accuracy:.3f} "
               f">= 0.90 within {config.epochs} epochs, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. ablation plumbing


def _smoke_config_file(tmp_path, smoke_file, **overrides):
    base = {
        "qubits": 6,
        "encoder_layers": 3,
        "main_layers": 2,
        "reupload_count": 4,
        "reupload_layers": 1,
        "epochs": 25,
        "batch_size": 16,
        "learning_rate": 0.02,
        "shots": 8192,
        "error_rate_1q": 1e-4,
        "error_rate_2q": 1e-3,
        "dataset": smoke_file,
        "split_mode": "counts",
        "train_per_class": 24,
        "val_per_class": 8,
        "seed": 7,
    }
    base.update(overrides)
    path = tmp_path / "smoke_config.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()), encoding="utf-8")
    return path


def test_criterion_8_ablation_plumbing(tmp_path, smoke_file):
    cfg = _smoke_config_file(tmp_path, smoke_file)
    out = tmp_path / "runs"
    accuracies = {}
    assert cli_main(["train", "--config", str(cfg), "--out", str(out / "base")]) == 0
    for mode in ("nn-encoder", "nn-head", "no-final-linear"):
        assert cli_main(["ablate", "--config", str(cfg), "--mode", mode,
                         "--out", str(out)]) == 0
        report = json.loads((out / mode / "report.json").read_text())
        accuracies[mode] = report["test_accuracy"]
        assert 0.0 <= report["test_accuracy"] <= 1.0
    base = json.loads((out / "base" / "report.json").read_text())
    ablated = json.loads((out / "no-final-linear" / "report.json").read_text())
    delta = base["parameter_count"] - ablated["parameter_count"]
    assert delta == (6 + 1) * 2
    _report(8, f"ablations trained end-to-end (test acc {accuracies}); removing the "
               f"final linear layer drops exactly {delta} = (Qc+1)*k parameters")


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_determinism(tmp_path, smoke_file):
    cfg = _smoke_config_file(tmp_path, smoke_file, epochs=8)
    out = tmp_path / "repro"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("report.json", "metrics.csv", "checkpoint.qhd1")
    }
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, f"{name} changed between reruns"

    eval_out = tmp_path / "eval"
    args = ["eval", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.qhd1"),
            "--split", "test", "--out", str(eval_out)]
    assert cli_main(args) == 0
    eval_first = (eval_out / "eval_report.json").read_bytes()
    assert cli_main(args) == 0
    assert (eval_out / "eval_report.json").read_bytes() == eval_first
    _report(9, "noisy train and eval reruns reproduced report.json, metrics.csv, "
               "and checkpoint bytes exactly")

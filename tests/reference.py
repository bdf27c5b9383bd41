"""Per-sample references and the functional head API, used only by tests.

The package trains and evaluates through ``HybridHead``. The tests check it
against these simpler routes:

* ``encoder_forward`` / ``encoder_backward`` run one input on a complex128
  state from ``amplitude_encode``; ``encoder_backward(method="shift")``
  takes the full shift-rule Jacobian of ``parameter_shift_jacobian``, whose
  +/- pi/2 rows each run alone through ``run_gates``;
* ``_noisy_sample`` runs one noisy sample alone, on its own trajectory of
  the lifted plan circuit (``lift_plan``: each encoding occurrence an RY
  slot, every angle in one per-row vector): one row forward and one one-row
  adjoint sweep,
  then its shot work, whose half-turn values come from
  ``per_gate_expectations``. It draws one normal for the value, then one
  per +/- pi/2 pair, shared by both of the pair's estimates. The head runs
  a row chunk's trajectories of the plan circuit as one array, its
  trainable angles shared by every row; at finite shots it takes c and a_j
  from one pass of ``grad._batch_expectations``, which this reference does
  not run, and draws each sample's normals in one call.
  ``pqc_forward``, ``_pqc_value`` and ``_pqc_value_and_grads`` run one
  sample through it;
* ``per_gate_expectations`` runs shifted rows one kernel call per gate,
  each row from its first differing gate: the check on
  ``grad._batch_expectations``, whose half-turn rows of one sample it runs
  as ``_shift_rows(ext, pi)[: 1 + P]`` on that sample's lifted trajectory;
* ``HeadParams`` with ``head_forward``, ``head_gradient``,
  ``init_head_params``, ``linear_logits`` and ``count_head_parameters`` is a
  functional view of the same head.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from qhead import grad
from qhead import noise as noise_mod
from qhead.ansatz import DATA, RY, CircuitSpec, GateList, count_parameters
from qhead.errors import ConfigurationError
from qhead.grad import (
    _prepare,
    _shift_rows,
    adjoint_observable_gradients,
    run_gates,
)
from qhead.head import (
    EncoderConfig,
    HybridHead,
    QuantumEncoder,
    _plan_pqc,
    _PqcPlan,
    build_hybrid_head,
    encoder_circuit,
)
from qhead.simcore import _all_z_expectations, _z_expectation, amplitude_encode
from qhead.trainer import load_parameters


@dataclass
class HeadParams:
    """All trainable values: per-encoder angles, circuit angles, linear weights."""

    theta_c: list[np.ndarray]
    theta_q: np.ndarray
    linear: np.ndarray | None


# ---------------------------------------------------------------------------
# encoder stage, one input on a complex state


def parameter_shift_jacobian(circuit: GateList, params, latent=None,
                             initial: np.ndarray | None = None) -> np.ndarray:
    """d<Z_q>/d(theta_p) for every qubit q, shape (num_qubits, P). Noiseless.

    Each +/- pi/2 row runs alone through ``run_gates``, from |0...0> or from
    a copy of ``initial``.
    """
    params, latent = _prepare(circuit, params, latent)
    n, p = circuit.num_qubits, params.size
    vals = np.empty((2 * p, n))
    for r, row in enumerate(_shift_rows(params, math.pi / 2)[1:]):
        if initial is None:
            amps = np.zeros(1 << n)
            amps[0] = 1.0
        else:
            amps = initial.copy()
        run_gates(amps, circuit, row, latent)
        vals[r] = _all_z_expectations(amps, n)
    return (vals[:p] - vals[p:]).T / 2.0


def encoder_forward(x, theta_c, config: EncoderConfig) -> np.ndarray:
    """Latent of one encoder: exact per-qubit <Z> (no shots, no gate noise)."""
    theta_c = np.asarray(theta_c, dtype=np.float64)
    if theta_c.shape != (config.params_per_encoder,):
        raise ConfigurationError(
            f"encoder expects {config.params_per_encoder} parameters, got shape {theta_c.shape}"
        )
    state = amplitude_encode(x, config.encoder_qubits)
    run_gates(state.amplitudes, encoder_circuit(config), theta_c, None)
    return _all_z_expectations(state.amplitudes, config.encoder_qubits)


def encoder_backward(x, theta_c, config: EncoderConfig, dlatent,
                     method: str = "adjoint") -> np.ndarray:
    """Gradient of dlatent . latent(x, theta_c) w.r.t. theta_c.

    "adjoint" backpropagates the weighted-Z observable in one reverse sweep;
    "shift" forms the full shift-rule Jacobian first. They agree to solver
    precision.
    """
    theta_c = np.asarray(theta_c, dtype=np.float64)
    dlatent = np.asarray(dlatent, dtype=np.float64)
    circuit = encoder_circuit(config)
    initial = amplitude_encode(x, config.encoder_qubits).amplitudes
    if method == "adjoint":
        final = run_gates(initial.copy(), circuit, theta_c, None)
        grads, _ = adjoint_observable_gradients(circuit, theta_c, None, dlatent, final)
        return grads[0]
    if method == "shift":
        jac = parameter_shift_jacobian(circuit, theta_c, initial=initial)
        return jac.T @ dlatent
    raise ConfigurationError(f"unknown encoder gradient method {method!r}")


def multi_encoder_forward(x, theta_c_list, config: EncoderConfig) -> np.ndarray:
    """Concatenated latents of E independent encoders reading the same input."""
    if len(theta_c_list) != config.num_encoders:
        raise ConfigurationError(
            f"expected {config.num_encoders} parameter vectors, got {len(theta_c_list)}"
        )
    return np.concatenate([encoder_forward(x, t, config) for t in theta_c_list])


# ---------------------------------------------------------------------------
# re-uploading circuit stage, one sample


def lift_plan(circuit: GateList, p: int) -> GateList:
    """A plan circuit with its data record k read as RY slot p + k, after the P real slots."""
    return GateList(circuit.num_qubits, [(RY, g[1], p + g[2]) if g[0] == DATA else g
                                         for g in circuit.gates])


def _noisy_sample(plan: _PqcPlan, theta_q: np.ndarray, latent: np.ndarray,
                  noise: noise_mod.NoiseModel, rng_traj, rng_shot, grads: bool):
    """z estimate of one noisy sample; with ``grads`` also dz/dtheta_q and dz/dlatent.

    One trajectory of the lifted plan circuit, read on qubit 0, which reads
    each slot of ``ext = concat(theta_q, latent[occurrences])`` at exactly
    one RY gate. On that trajectory E(ext_j + s) is a_j + b_j cos s +
    c_j sin s, so E(ext_j +/- pi/2) = a_j +/- c_j with c = dE/d(ext). The
    unshifted row runs once through ``run_gates``, and one adjoint sweep
    from its final state gives c. At finite
    shots the +/- pi/2 values are sampled in pairs sharing one normal draw, with
    a_j = [E + E(ext_j + pi)] / 2 from ``per_gate_expectations``, which checks
    that no slot is read twice; at infinite shots the gradient is c.
    """
    run_list = noise_mod.sample_pauli_insertions(lift_plan(plan.circuit, plan.n_params),
                                                 noise, rng_traj)
    ext = np.concatenate([theta_q, latent[plan.occurrences]])
    n = run_list.num_qubits
    final = run_gates(np.eye(1, 1 << n), run_list, ext, None)
    value = float(_z_expectation(final, n, 0)[0])
    z = value
    if noise.shots is not None:
        z = noise_mod.shot_sample_expectation(value, noise.shots, rng_shot)
    if not grads:
        return z
    g_ext = adjoint_observable_gradients(run_list, ext, None, np.eye(n)[0], final)[0][0]
    if noise.shots is not None:
        half_turns = _shift_rows(ext, math.pi)[: 1 + ext.size]
        mid = (value + per_gate_expectations(run_list, half_turns, None, 0)[1:]) / 2.0
        eps = rng_shot.standard_normal(g_ext.size)  # common random numbers
        plus = noise_mod.gaussian_shot_estimate(mid + g_ext, noise.shots, eps)
        minus = noise_mod.gaussian_shot_estimate(mid - g_ext, noise.shots, eps)
        g_ext = (plus - minus) / 2.0
    glatent = np.zeros(plan.latent_dim)
    np.add.at(glatent, plan.occurrences, g_ext[plan.n_params :])
    return z, g_ext[: plan.n_params], glatent


_pqc_value = functools.partial(_noisy_sample, grads=False)
_pqc_value_and_grads = functools.partial(_noisy_sample, grads=True)


def pqc_forward(latent, theta_q, spec: CircuitSpec,
                noise: noise_mod.NoiseModel | None = None,
                rng: np.random.Generator | None = None) -> float:
    """Measured-qubit <Z> estimate of the re-uploading circuit.

    Draws one gate-noise trajectory and then one shot sample from ``rng`` when
    the noise model calls for them; otherwise reduces exactly to the noiseless
    expectation (``noise`` None means noiseless).
    """
    latent = np.asarray(latent, dtype=np.float64)
    theta_q = np.asarray(theta_q, dtype=np.float64)
    if latent.ndim != 1:
        raise ConfigurationError(f"latent must be a 1-D vector, got shape {latent.shape}")
    plan = _plan_pqc(spec, latent.size)
    return _noisy_sample(plan, theta_q, latent, noise or noise_mod.NoiseModel(), rng, rng,
                         grads=False)


def per_gate_expectations(circuit, rows, latent, measured) -> np.ndarray:
    """<Z_measured> of shifted rows (R, P), run one kernel call per gate.

    It accepts more than ``grad._batch_expectations``, which takes the
    unturned angles and turns each column by pi: here every row may
    differ from row 0 by any amount, in one column at most (or
    ``ConfigurationError`` is raised, as for a column read by two RY gates).
    A row shifted in a read column starts at that gate, from a copy of row
    0's state there. Rows sorted by start gate make the started rows a
    prefix; at an RY gate the rows starting there take their own angles and
    the others row 0's scalar angle. The kernels are looked up in
    ``qhead.grad``, so that a test can count them there.
    """
    n = circuit.num_qubits
    n_gates = len(circuit.gates)
    differs = rows != rows[0]
    if np.any(np.count_nonzero(differs, axis=1) > 1):
        raise ConfigurationError("a shifted row differs from row 0 in more than one column")
    read_gate = np.full(rows.shape[1], n_gates)
    for i, g in enumerate(circuit.gates):
        if g[0] == RY:
            if read_gate[g[2]] < n_gates:
                raise ConfigurationError(f"column {g[2]} is read by more than one RY gate")
            read_gate[g[2]] = i
    starts = np.where(differs, read_gate, n_gates).min(axis=1, initial=n_gates)
    starts[0] = 0
    order = np.argsort(starts, kind="stable")
    out = np.empty(rows.shape[0])
    for part in grad._row_chunks(order.size, n):
        idx = order[part] if part.start == 0 else np.concatenate(([0], order[part]))
        chunk = rows[idx]
        amps = np.empty((idx.size, 1 << n))
        amps[0] = 0.0
        amps[0, 0] = 1.0
        started = np.searchsorted(starts[idx], np.arange(n_gates), side="right")
        active = 1
        for g, hi in zip(circuit.gates, started):
            if g[0] != RY:
                grad._apply_gate(amps[:active], n, g, None, latent)
                continue
            lo, active = active, hi
            if hi > lo:
                amps[lo:hi] = amps[0]
            grad._ry(amps[:lo], n, g[1], chunk[0, g[2]])
            if hi > lo:
                grad._ry(amps[lo:hi], n, g[1], chunk[lo:hi, g[2]])
        amps[active:] = amps[0]
        out[idx] = _z_expectation(amps, n, measured)
    return out


# ---------------------------------------------------------------------------
# readout and the functional head


def linear_logits(latent, z_meas: float, weights: np.ndarray) -> np.ndarray:
    """Logits = W @ concat(latent, z); W has shape (classes, latent_dim + 1)."""
    latent = np.asarray(latent, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != latent.size + 1:
        raise ConfigurationError(
            f"weights shape {weights.shape} does not match latent length {latent.size} + 1"
        )
    return weights @ np.append(latent, z_meas)


def head_forward(x, params: HeadParams, encoder_config: EncoderConfig,
                 spec: CircuitSpec) -> np.ndarray:
    """Noiseless class logits for one input; with no linear layer they are (z, -z)."""
    latent = multi_encoder_forward(x, params.theta_c, encoder_config)
    z = pqc_forward(latent, params.theta_q, spec)
    if params.linear is None:
        return np.array([z, -z])
    return linear_logits(latent, z, params.linear)


def count_head_parameters(encoder_config: EncoderConfig, spec: CircuitSpec,
                          num_classes: int = 2, final_linear: bool = True) -> int:
    """Exact trainable-parameter total for the hybrid head."""
    total = encoder_config.num_encoders * encoder_config.params_per_encoder
    total += count_parameters(spec)
    if final_linear:
        total += (encoder_config.latent_dim + 1) * num_classes
    return total


def init_head_params(encoder_config: EncoderConfig, spec: CircuitSpec,
                     num_classes: int = 2, rng: np.random.Generator | None = None,
                     final_linear: bool = True) -> HeadParams:
    """The initial values of a fresh :class:`HybridHead` drawn from ``rng``.

    Angles are uniform in [-pi, pi); linear weights small normal.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    model = HybridHead(QuantumEncoder(encoder_config, rng), spec, num_classes=num_classes,
                       final_linear=final_linear, rng=rng)
    return HeadParams(theta_c=model.encoder.theta, theta_q=model.theta_q, linear=model.linear)


def head_gradient(X, labels, params: HeadParams, encoder_config: EncoderConfig,
                  spec: CircuitSpec, num_classes: int = 2, noise=None,
                  seed_path: tuple[int, ...] = ()):
    """Batch-mean loss and gradients in HeadParams shape (functional wrapper)."""
    model = build_hybrid_head(encoder_config, spec, num_classes,
                              final_linear=params.linear is not None)
    arrays = {f"encoder_{i}": t for i, t in enumerate(params.theta_c)}
    arrays["pqc"] = params.theta_q
    if params.linear is not None:
        arrays["linear"] = params.linear
    load_parameters(model, arrays)
    loss, grads = model.batch_loss_and_gradients(X, labels, noise=noise, seed_path=seed_path)
    theta_c = [grads[f"encoder_{i}"] for i in range(encoder_config.num_encoders)]
    return loss, HeadParams(theta_c=theta_c, theta_q=grads["pqc"], linear=grads.get("linear"))

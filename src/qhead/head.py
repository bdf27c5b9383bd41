"""The hybrid classification head.

Pipeline: E parallel simulated encoders (amplitude encoding plus an exact
trainable circuit, measured qubit-wise) produce a latent vector in
[-1, 1]^(E*Qc); the re-uploading circuit loads it by angle encoding, runs
under optional gate/shot noise, and is measured on qubit 0; a final linear
layer maps concat(latent, z) to class logits (no separate bias column). The
encoders are always evaluated exactly; noise applies to the re-uploading
circuit only. When the latent is longer than the circuit width, each encoding
step applies stacked rotation passes, one per width-sized latent slice.

A batch of B samples runs as real (B, 2^Q) arrays, in row chunks of bounded
memory. Each encoder runs its circuit once over all rows and, in a training
step, keeps the final states: its rows share its angles, so its gradient is
one sweep back from them by fused blocks. The readout is one matmul, by
the linear layer or, without it, by fixed weights that give (z, -z).

The re-uploading circuit runs one plan circuit whose k-th encoding rotation
reads angle k: each row carries its K occurrence angles latent[occurrences],
and all rows share the P trainable angles. Under gate noise each sample
draws its trajectory from its own stream, and a row chunk's trajectories
run as one array, each Pauli record tagged with its row
(``_merge_trajectories``). At infinite shots one adjoint sweep from the
chunk's final states gives each row's exact derivatives c. At finite shots
one fused pass over its half-turn rows (``qhead.grad._batch_expectations``)
gives c and a_j. The chunk's values, and its +/- pi/2 values a_j +/- c_j
with one shared normal draw per pair, take one ``gaussian_shot_estimate``
call each. The tests check this API (``EncoderConfig``, ``QuantumEncoder``,
``HybridHead``, ``build_hybrid_head``) against the per-sample references in
``tests/reference.py``, hand-built +/- pi/2 rows and the parameter-shift rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from . import seeding
from .ansatz import DATA, PAULI, RY, CircuitSpec, GateList, assemble_head_circuit, build_block, count_parameters
from .errors import ConfigurationError
from .grad import (
    _batch_expectations,
    _blocks,
    _row_chunks,
    adjoint_observable_gradients,
    block_adjoint_gradients,
    run_gates,
)
from .simcore import (
    MAX_QUBITS,
    _all_z_expectations,
    _z_expectation,
    amplitude_encode_rows,
)
from .trainer import softmax_cross_entropy_batch


@dataclass(frozen=True)
class EncoderConfig:
    """Shape of the encoder stage: E parallel circuits of Qc qubits each."""

    num_encoders: int = 1
    encoder_qubits: int = 10
    encoder_layers: int = 27
    connectivity: int = 1
    extra_rotation: bool = True  # one additional trainable rotation per encoder

    def __post_init__(self):
        if self.num_encoders < 1:
            raise ConfigurationError(f"need at least one encoder, got {self.num_encoders}")
        if self.encoder_qubits < 1:
            raise ConfigurationError(f"encoder qubits must be >= 1, got {self.encoder_qubits}")
        if self.encoder_layers < 0:
            raise ConfigurationError(f"encoder layers must be >= 0, got {self.encoder_layers}")
        if self.encoder_layers > 0 and not 1 <= self.connectivity < self.encoder_qubits:
            raise ConfigurationError(
                f"encoder connectivity must satisfy 1 <= C < Qc, got {self.connectivity}"
            )

    @property
    def params_per_encoder(self) -> int:
        return self.encoder_layers * self.encoder_qubits + int(self.extra_rotation)

    @property
    def latent_dim(self) -> int:
        return self.num_encoders * self.encoder_qubits


# ---------------------------------------------------------------------------
# encoder stage (always exact)


def encoder_circuit(config: EncoderConfig) -> GateList:
    """Trainable circuit of one encoder (runs after amplitude encoding)."""
    block = build_block(config.encoder_qubits, config.connectivity, config.encoder_layers)
    gates = list(block.gates)
    if config.extra_rotation:
        gates.append((RY, 0, config.encoder_layers * config.encoder_qubits))
    return GateList(config.encoder_qubits, gates)


# ---------------------------------------------------------------------------
# re-uploading circuit stage (noise lives here)


@dataclass
class _PqcPlan:
    """Precomputed circuit structure for one (spec, latent length) pairing.

    ``circuit`` is the head circuit whose k-th DATA record reads angle k; a
    row's angles are ``latent[occurrences]``, one per occurrence.
    """

    circuit: GateList
    occurrences: np.ndarray
    n_params: int
    latent_dim: int


def _plan_pqc(spec: CircuitSpec, latent_dim: int) -> _PqcPlan:
    spec.validate()
    if spec.qubits > MAX_QUBITS:
        raise ConfigurationError(
            f"circuits wider than {MAX_QUBITS} qubits cannot be simulated, "
            f"got {spec.qubits}"
        )
    if latent_dim <= 0 or latent_dim % spec.qubits:
        raise ConfigurationError(
            f"latent length {latent_dim} is not a positive multiple of the circuit "
            f"width {spec.qubits}"
        )
    gates = assemble_head_circuit(spec, latent_dim // spec.qubits).gates
    occurrences = np.array([g[2] for g in gates if g[0] == DATA], dtype=np.intp)
    k = iter(range(occurrences.size))
    circuit = GateList(spec.qubits, [(DATA, g[1], next(k)) if g[0] == DATA else g
                                     for g in gates])
    return _PqcPlan(circuit, occurrences, count_parameters(spec), latent_dim)


def _run_rows(circuit: GateList, params, angles, grads: bool) -> tuple:
    """(z,) on qubit 0 of B rows run from real |0...0> at shared ``params`` (P,) and
    each row's DATA ``angles`` (B, K); with ``grads`` also dz/dparams (B, P) and
    dz/dangles (B, K), from one adjoint sweep back from the rows' final states.
    """
    amps = np.zeros((len(angles), 1 << circuit.num_qubits))
    amps[:, 0] = 1.0
    run_gates(amps, circuit, params, angles)
    z = _z_expectation(amps, circuit.num_qubits, 0)
    if not grads:
        return (z,)
    return (z, *adjoint_observable_gradients(circuit, params, angles,
                                             np.eye(circuit.num_qubits)[0], amps))


def _merge_trajectories(circuit: GateList, runs) -> GateList:
    """One gate list for B trajectories of ``circuit``, each Pauli record tagged with its row.

    Every gate of ``circuit`` is followed by the records that row b's
    trajectory ``runs[b]`` inserts after it, as ("pauli", qubit, label, b);
    records before a trajectory's first gate come before the first gate.
    """
    slots: list[list[tuple]] = [[]] + [[g] for g in circuit.gates]
    for row, run in enumerate(runs):
        at = 0
        for g in run.gates:
            if g[0] == PAULI:
                slots[at].append((*g, row))
            else:
                at += 1
    return GateList(circuit.num_qubits, [r for slot in slots for r in slot])


# ---------------------------------------------------------------------------
# trainer-facing model


class QuantumEncoder:
    """E parallel simulated encoders with trainable angles drawn from ``rng``.

    Given values are copied in afterwards with ``trainer.load_parameters``.
    ``forward`` takes one input (d,) or a batch (B, d). A batch is
    amplitude-encoded into real (B, 2^Qc) rows; each encoder runs its circuit
    once over the rows (in row chunks, see ``grad._row_chunks``). With
    ``grads`` it also returns their final states, and ``backward`` sweeps
    back from them at the same angles, by the blocks cut when the encoder is
    built, without running the circuit again (``grad.block_adjoint_gradients``).
    """

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        self.config = config
        self.theta = [
            rng.uniform(-math.pi, math.pi, config.params_per_encoder)
            for _ in range(config.num_encoders)
        ]
        self.circuit = encoder_circuit(config)
        self.blocks = _blocks(self.circuit)

    @property
    def latent_dim(self) -> int:
        return self.config.latent_dim

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {f"encoder_{i}": t for i, t in enumerate(self.theta)}

    def forward(self, x, grads: bool = False):
        """Latents (B, E*Qc) or (E*Qc,); with ``grads``, (latents, states for ``backward``)."""
        x = np.asarray(x, dtype=np.float64)
        X = x.reshape(-1, x.shape[-1])
        q = self.config.encoder_qubits
        latent = np.empty((len(X), self.latent_dim))
        saved = []
        for rows in _row_chunks(len(X), q):
            for i, t in enumerate(self.theta):
                amps = run_gates(amplitude_encode_rows(X[rows], q), self.circuit, t, None)
                latent[rows, i * q : (i + 1) * q] = _all_z_expectations(amps, q)
                if grads:
                    saved.append((rows, i, amps))
        latent = latent.reshape(x.shape[:-1] + (self.latent_dim,))
        return (latent, saved) if grads else latent

    def backward(self, saved, dlatent) -> dict[str, np.ndarray]:
        """Gradient of sum_b dlatent[b] . latent(x[b]) w.r.t. each encoder's angles."""
        q = self.config.encoder_qubits
        dlatent = np.asarray(dlatent, dtype=np.float64).reshape(-1, self.latent_dim)
        grads = {f"encoder_{i}": np.zeros_like(t) for i, t in enumerate(self.theta)}
        for rows, i, final in saved:
            grads[f"encoder_{i}"] += block_adjoint_gradients(
                self.circuit, self.blocks, self.theta[i], dlatent[rows, i * q : (i + 1) * q],
                final)
        return grads


class HybridHead:
    """Trainable hybrid head: encoder object + noisy circuit + linear readout.

    The encoder is pluggable: a :class:`QuantumEncoder` by default, or any
    object with ``latent_dim``, ``forward(x, grads=False)``,
    ``backward(saved, dlatent)`` and ``parameter_arrays`` (the MLP encoder
    ablation uses this). A training step calls ``forward`` once with
    ``grads`` and hands what it saved to ``backward``. The circuit angles and
    the linear weights are drawn from ``rng``. Given values are copied in
    afterwards with ``trainer.load_parameters``. The logits are concat(latent,
    z) @ ``readout``.T: ``readout`` is the live ``linear`` array or, with no
    final linear layer, fixed weights [[0 ... 0, 1], [0 ... 0, -1]], no parameter.
    """

    def __init__(self, encoder, spec: CircuitSpec, num_classes: int = 2,
                 final_linear: bool = True, *, rng: np.random.Generator):
        if not final_linear and num_classes != 2:
            raise ConfigurationError("dropping the final linear layer requires 2 classes")
        self.encoder = encoder
        self.spec = spec
        self.plan = _plan_pqc(spec, encoder.latent_dim)
        self.theta_q = rng.uniform(-math.pi, math.pi, self.plan.n_params)
        width = encoder.latent_dim + 1
        if final_linear:
            self.linear = self.readout = 0.1 * rng.standard_normal((num_classes, width))
        else:
            self.linear, self.readout = None, np.zeros((2, width))
            self.readout[:, -1] = 1.0, -1.0

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        arrays = dict(self.encoder.parameter_arrays())
        arrays["pqc"] = self.theta_q
        if self.linear is not None:
            arrays["linear"] = self.linear
        return arrays

    def _circuit(self, latent: np.ndarray, noise, seed_path, grads: bool):
        """Per-row z (B,); with ``grads`` also dz/dtheta_q (B, P) and dz/dlatent (B, L).

        Every row runs ``plan.circuit`` at its occurrence angles, one
        ``_run_rows`` call per row chunk. Sample i draws its trajectory (under
        gate noise) and all its normals (at finite shots, in one call) from its
        streams at seed path ``(*seed_path, i)``. Gradients take one sweep per
        chunk at infinite shots, and one ``_batch_expectations`` call at finite
        shots; there the chunk's shot estimates are one vector pass.
        """
        if latent.shape[1:] != (self.plan.latent_dim,):
            raise ConfigurationError(f"expected latents of shape (rows, {self.plan.latent_dim}) "
                                     f"from the encoder, got {latent.shape}")
        plan, noise = self.plan, noise or noise_mod.NoiseModel()
        gate_noise = noise.p1q > 0.0 or noise.p2q > 0.0
        angles = latent[:, plan.occurrences]
        z = np.empty(len(latent))
        g_ext = np.empty((len(latent), plan.n_params + plan.occurrences.size))
        for rows in _row_chunks(len(latent), self.spec.qubits):
            index = range(len(latent))[rows]
            circuit = plan.circuit
            if gate_noise:
                circuit = _merge_trajectories(plan.circuit, [
                    noise_mod.sample_pauli_insertions(plan.circuit, noise, seeding.stream(
                        noise.seed, seeding.TRAJECTORY, *seed_path, i)) for i in index])
            z[rows], *swept = _run_rows(circuit, self.theta_q, angles[rows],
                                        grads and noise.shots is None)
            if swept:
                g_ext[rows, : plan.n_params], g_ext[rows, plan.n_params :] = swept
            if noise.shots is None:
                continue
            # sample i's normals from its SHOTS stream: its value's, then one per +/- pair
            eps = np.array([seeding.stream(noise.seed, seeding.SHOTS, *seed_path, i)
                            .standard_normal(1 + grads * g_ext.shape[1]) for i in index])
            if grads:  # the half-turn values and the slopes c, from one pass
                turned, c = _batch_expectations(circuit, self.theta_q, angles[rows])
                # E(ext_j +/- pi/2) = a_j +/- c_j, a_j = [E + E(ext_j + pi)] / 2
                mid = (z[rows, None] + turned) / 2.0
                plus = noise_mod.gaussian_shot_estimate(mid + c, noise.shots, eps[:, 1:])
                minus = noise_mod.gaussian_shot_estimate(mid - c, noise.shots, eps[:, 1:])
                g_ext[rows] = (plus - minus) / 2.0
            z[rows] = noise_mod.gaussian_shot_estimate(z[rows], noise.shots, eps[:, 0])
        if not grads:
            return z
        glatent = np.zeros((len(latent), plan.latent_dim))
        np.add.at(glatent, (slice(None), plan.occurrences), g_ext[:, plan.n_params :])
        return z, g_ext[:, : plan.n_params], glatent

    def predict_logits(self, X, noise=None, seed_path: tuple[int, ...] = ()) -> np.ndarray:
        latent = self.encoder.forward(np.asarray(X, dtype=np.float64))
        z = self._circuit(latent, noise, seed_path, grads=False)
        return np.column_stack([latent, z]) @ self.readout.T

    def batch_loss_and_gradients(self, X, y, noise=None,
                                 seed_path: tuple[int, ...] = ()):
        X = np.asarray(X, dtype=np.float64)
        if len(X) == 0:
            return 0.0, {k: np.zeros_like(v) for k, v in self.parameter_arrays().items()}
        latent, saved = self.encoder.forward(X, grads=True)
        z, dz_dtheta, dz_dlatent = self._circuit(latent, noise, seed_path, grads=True)
        features = np.column_stack([latent, z])
        losses, dlogits = softmax_cross_entropy_batch(features @ self.readout.T, np.asarray(y))
        scale = 1.0 / len(X)
        grads: dict[str, np.ndarray] = {}
        if self.linear is not None:
            grads["linear"] = (dlogits.T @ features) * scale
        dfeatures = dlogits @ self.readout
        dz = dfeatures[:, -1]
        dlatent = dfeatures[:, :-1] + dz[:, None] * dz_dlatent
        grads["pqc"] = (dz @ dz_dtheta) * scale
        for key, g in self.encoder.backward(saved, dlatent).items():
            grads[key] = g * scale
        return float(losses.sum()) * scale, {k: grads[k] for k in self.parameter_arrays()}


def build_hybrid_head(encoder_config: EncoderConfig, spec: CircuitSpec,
                      num_classes: int = 2, final_linear: bool = True,
                      seed: int = 0) -> HybridHead:
    """Fresh head with all parameters drawn from the PARAM_INIT stream of ``seed``."""
    rng = seeding.stream(seed, seeding.PARAM_INIT)
    encoder = QuantumEncoder(encoder_config, rng)
    return HybridHead(encoder, spec, num_classes=num_classes,
                      final_linear=final_linear, rng=rng)

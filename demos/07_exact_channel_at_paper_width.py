"""The noisy head circuit at the paper's width, checked against the exact channel.

One latent goes through the re-uploading circuit of the paper's shape
(Q = 10, M = 2, R = 4, N = 1) 4,000 times, under the depolarizing rates of
the paper-shape benchmark step (p1q = 1e-3, p2q = 1e-2). Each copy is one
sample of ``HybridHead._circuit(grads=True)``: it draws its own Pauli
trajectory and, at finite shots, its own shot noise. Averaged over the
copies, the value and the gradient must converge to the depolarizing
channel's, which ``depolarizing_reference_expectation`` computes exactly on
the 2^10 x 2^10 density matrix. It reads the head's own plan circuit, data
rotations included, with the latent's angles ``latent[plan.occurrences]``.
The exact gradient of a trainable slot comes from the shift rule on that
channel, which turns only the trainable angles.

The decision rule was fixed before the first run. Over the 4 components (the
value and the gradients of slots 0, 30 and 59), z_c = (sample mean - exact)
/ standard error. Every exact and shifted |E| must be below 0.5, where the
shot sampler's clamp to [-1, 1] cannot bias a mean. The sum of z_c^2 must be
below 23.51, the chi-squared(4) upper 1e-4 quantile (its tail is
exp(-x/2)(1 + x/2)), and every |z_c| below 4.5. The script exits with
status 1 when the rule fails. It takes a minute or two on one core.

Each noisy sample runs one trajectory, so the spread of a sample's value
holds the trajectory spread as well as the shot noise; the last lines print
both beside the shot noise alone.
"""
import math
import sys
import time

import numpy as np

from qhead.ansatz import CircuitSpec
from qhead.head import EncoderConfig, build_hybrid_head
from qhead.noise import NoiseModel, depolarizing_reference_expectation

SLOTS = [0, 30, 59]
SAMPLES, BATCH = 4000, 1000
CHI2_4_UPPER_1E4 = 23.51
RATES = dict(p1q=1e-3, p2q=1e-2)

spec = CircuitSpec(qubits=10, main_layers=2, reupload_layers=1, reupload_count=4)
model = build_hybrid_head(EncoderConfig(num_encoders=1, encoder_qubits=10, encoder_layers=1),
                          spec, seed=0)
plan = model.plan
latent = np.random.default_rng(7).uniform(-1, 1, plan.latent_dim)

# --- the exact channel: value, and the shift rule on three trainable slots ---
started = time.perf_counter()
theta = model.theta_q


def exact(angles):
    return depolarizing_reference_expectation(plan.circuit, angles, NoiseModel(**RATES),
                                              latent=latent[plan.occurrences])


value = exact(theta)
shifted = {j: [exact(theta + s * (math.pi / 2) * np.eye(theta.size)[j]) for s in (1, -1)]
           for j in SLOTS}
want = np.array([value] + [(plus - minus) / 2.0 for plus, minus in shifted.values()])
largest = max(abs(value), *(abs(e) for pair in shifted.values() for e in pair))
print(f"exact channel: {len(plan.circuit.gates)} gates, {1 + 2 * len(SLOTS)} density-matrix "
      f"values in {time.perf_counter() - started:.1f}s; largest |E| {largest:.3f}")

# --- the batched noisy route, at infinite shots and at 8192 ---------------
names = ["E"] + [f"dE/dtheta_{j}" for j in SLOTS]
passed = largest < 0.5
spreads = {}
for shots in (None, 8192):
    started = time.perf_counter()
    drawn = []
    for b in range(SAMPLES // BATCH):
        z, g_theta, _ = model._circuit(np.tile(latent, (BATCH, 1)),
                                       NoiseModel(shots=shots, seed=11, **RATES), (b,),
                                       grads=True)
        drawn.append(np.column_stack([z, g_theta[:, SLOTS]]))
    drawn = np.concatenate(drawn)
    stderr = drawn.std(axis=0, ddof=1) / math.sqrt(SAMPLES)
    scores = (drawn.mean(axis=0) - want) / stderr
    chi2 = float(np.sum(scores**2))
    ok = chi2 < CHI2_4_UPPER_1E4 and np.abs(scores).max() < 4.5
    passed = passed and ok
    spreads[shots] = drawn[:, 0].std(ddof=1)
    label = "inf" if shots is None else shots
    print(f"\nshots {label}: {SAMPLES} samples in {time.perf_counter() - started:.1f}s")
    for name, w, m, e, s in zip(names, want, drawn.mean(axis=0), stderr, scores):
        print(f"  {name:<14} exact {w:+.6f}  mean {m:+.6f} +/- {e:.1e}  z {s:+.2f}")
    print(f"  sum z^2 = {chi2:.2f} (< {CHI2_4_UPPER_1E4}), max |z| = "
          f"{np.abs(scores).max():.2f} (< 4.5): {'pass' if ok else 'FAIL'}")

shot_only = math.sqrt((1 - value**2) / 8192)
print(f"\nper-sample std of z: {spreads[None]:.4f} from the trajectory alone, "
      f"{spreads[8192]:.4f} with 8192 shots; 8192 shots of the exact channel "
      f"alone give sqrt((1 - E^2)/8192) = {shot_only:.4f}")
print("decision rule:", "pass" if passed else "FAIL")
sys.exit(0 if passed else 1)

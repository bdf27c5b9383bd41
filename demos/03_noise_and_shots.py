"""Gate noise as Pauli trajectories, and the finite-shot sampler.

Depolarizing noise inserts a uniformly random non-identity Pauli after a
gate with the configured probability; averaging many trajectories converges
to the exact density-matrix channel. Finite shots are modeled by the Gaussian
limit of the multinomial estimator, clamped to [-1, 1].
"""
import math

import numpy as np

from qhead.ansatz import GateList
from qhead.grad import trajectory_expectation
from qhead.noise import (
    NoiseModel,
    depolarizing_reference_expectation,
    multinomial_z_estimate,
    shot_sample_expectation,
)
from qhead.seeding import SHOTS, TRAJECTORY, stream

# --- trajectory average vs exact channel -----------------------------------
circuit = GateList(2, [("ry", 0, 0), ("ry", 1, 1), ("cnot", 0, 1), ("ry", 1, 2)])
params = [0.9, -0.6, 1.3]
model = NoiseModel(p1q=2e-4, p2q=2e-3)

exact = depolarizing_reference_expectation(circuit, params, model=model)
clean = depolarizing_reference_expectation(circuit, params, model=NoiseModel())
trials = 20_000
vals = np.array([
    trajectory_expectation(circuit, params, None, model, stream(5, TRAJECTORY, t))
    for t in range(trials)
])
print(f"noiseless <Z_0>          : {clean:+.6f}")
print(f"density-matrix channel   : {exact:+.6f}")
print(f"{trials} trajectories    : {vals.mean():+.6f} "
      f"(stderr {vals.std(ddof=1) / math.sqrt(trials):.1e})")

# a single-qubit rate p contracts <Z> by exactly (1 - 4p/3)
single = GateList(1, [("ry", 0, 0)])
p = 0.3
contracted = depolarizing_reference_expectation(single, [0.8], model=NoiseModel(p1q=p))
print(f"\ncontraction check at p={p}: {contracted:.6f} == "
      f"(1 - 4p/3) cos(0.8) = {(1 - 4 * p / 3) * math.cos(0.8):.6f}")

# --- shot sampling ----------------------------------------------------------
z = 0.4
shots = 8192
rng = stream(11, SHOTS)
sample = shot_sample_expectation(z, shots, rng)
print(f"\none shot-sampled estimate of z={z} at S={shots}: {sample:+.5f}")

gauss = np.array([shot_sample_expectation(z, shots, rng) for _ in range(2000)])
multi = np.array([multinomial_z_estimate(z, shots, stream(12, SHOTS, i)) for i in range(2000)])
want = math.sqrt((1 - z * z) / shots)
print(f"analytic std sqrt((1-z^2)/S) = {want:.5f}")
print(f"gaussian sampler std         = {gauss.std(ddof=1):.5f}")
print(f"multinomial estimator std    = {multi.std(ddof=1):.5f}")
print("at z = +-1 the variance vanishes:",
      shot_sample_expectation(1.0, 16, rng),
      shot_sample_expectation(-1.0, 16, rng))

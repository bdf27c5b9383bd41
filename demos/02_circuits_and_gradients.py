"""Re-uploading circuits and the three gradient routes.

Builds the standard layout (encode, M main layers, then R repeats of
[encode, N layers]), counts its resources, and cross-checks parameter-shift,
adjoint, and finite-difference gradients on random parameters.
"""
import numpy as np

from qhead.ansatz import CircuitSpec, assemble_head_circuit, count_parameters, gate_counts
from qhead.grad import (
    adjoint_gradient,
    evaluate_expectation,
    finite_difference_oracle,
    parameter_shift_gradient,
)

spec = CircuitSpec(qubits=6, connectivity=1, main_layers=2, reupload_count=4,
                   reupload_layers=1)
circuit = assemble_head_circuit(spec, rounds=1)
single, two = gate_counts(spec)
print(f"circuit: {spec.qubits} qubits, {count_parameters(spec)} trainable angles, "
      f"{single} single-qubit gates (incl. encoding), {two} CNOTs")
print(f"encoding steps: 1 + R = {1 + spec.reupload_count}")

rng = np.random.default_rng(7)
params = rng.uniform(-np.pi, np.pi, count_parameters(spec))
latent = rng.uniform(-1, 1, spec.qubits)

value = evaluate_expectation(circuit, params, latent)
print(f"\n<Z_0> = {value:.6f}")

shift = parameter_shift_gradient(circuit, params, latent)
adjoint = adjoint_gradient(circuit, params, latent)
fd = finite_difference_oracle(circuit, params, latent, h=1e-4)

print("gradient agreement across routes:")
print(f"  |shift - adjoint|_max = {np.max(np.abs(shift - adjoint)):.2e}   (both exact)")
print(f"  |shift - fd|_max      = {np.max(np.abs(shift - fd)):.2e}   (fd is O(h^2))")

# the shift rule is exact at +-pi/2 offsets; finite differences degrade as h grows
for h in (1e-2, 1e-1, 0.5):
    err = np.max(np.abs(finite_difference_oracle(circuit, params, latent, h=h) - shift))
    print(f"  fd error at h={h:g}: {err:.2e}")

"""QPU/GPU inference-energy estimates and the crossover scan."""
from __future__ import annotations

import numpy as np
import pytest

from qhead.ansatz import CircuitSpec
from qhead.energy import (
    EnergyConstants,
    crossover_curve,
    find_crossover,
    gpu_energy_kj,
    qpu_energy_kj,
)
from qhead.errors import ConfigurationError


def _spec(qubits):
    return CircuitSpec(qubits=qubits, main_layers=2, reupload_count=4, reupload_layers=1)


class TestQpuEnergy:
    def test_ten_qubit_reference_value(self):
        # 10 * (110 * 1e-4 + 60 * 1e-5) * 8000 * 0.3 = 278.4 kJ
        assert qpu_energy_kj(_spec(10)) == pytest.approx(278.4, abs=1e-9)

    def test_zero_gate_circuit(self):
        spec = CircuitSpec(qubits=2, main_layers=0, reupload_count=0, reupload_layers=0)
        # only the lone encoding pass remains
        assert qpu_energy_kj(spec) == pytest.approx(2 * (2 * 1e-4) * 8000 * 0.3, abs=1e-12)

    def test_linear_in_shots(self):
        doubled = EnergyConstants(shots=16000)
        assert qpu_energy_kj(_spec(12), doubled) == pytest.approx(
            2 * qpu_energy_kj(_spec(12)), rel=1e-12
        )

    def test_linear_in_power(self):
        tripled = EnergyConstants(qpu_watts_per_qubit=900.0)
        assert qpu_energy_kj(_spec(8), tripled) == pytest.approx(
            3 * qpu_energy_kj(_spec(8)), rel=1e-12
        )


class TestGpuEnergy:
    def test_exponential_in_width(self):
        # same gate counts, doubled width: 2^dq scaling plus the linear factor
        a = gpu_energy_kj(_spec(10))
        b = gpu_energy_kj(_spec(11))
        # SQ and TQ scale linearly with qubits, so ratio is 2 * 11/10
        assert b / a == pytest.approx(2 * 11 / 10, rel=1e-12)

    def test_monotone_in_width(self):
        values = [gpu_energy_kj(_spec(q)) for q in range(2, 30)]
        assert np.all(np.diff(values) > 0)

    def test_reference_values_near_crossover(self):
        # frozen from the closed-form: 2.784 * 46^2 and 2^46 * 46 * 92 * 0.7 / 3.4e13
        assert qpu_energy_kj(_spec(46)) == pytest.approx(5891.1, abs=0.2)
        assert gpu_energy_kj(_spec(46)) == pytest.approx(6131.4, abs=0.5)

    def test_two_qubit_rate_stays_out_of_exponent(self):
        slow_2q = EnergyConstants(t_2q_seconds=1e-4)
        assert gpu_energy_kj(_spec(12), slow_2q) == gpu_energy_kj(_spec(12))


class TestCrossover:
    def test_reference_crossover(self):
        assert find_crossover() in (45, 46, 47)
        assert find_crossover() == 46

    def test_single_sign_change(self):
        rows = crossover_curve()
        signs = [e_gpu >= e_qpu for _, e_qpu, e_gpu in rows]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1
        assert not signs[0] and signs[-1]

    def test_faster_gpu_pushes_crossover_out(self):
        fast = EnergyConstants(gpu_flops=3.4e14)
        shift = find_crossover(fast) - find_crossover()
        assert shift in (3, 4)  # ~log2(10)

    def test_gpu_power_variant(self):
        # substituting the QPU power figure into the GPU formula delays the
        # crossover; both readings of the constant table stay in range
        alt = EnergyConstants(gpu_watts=300.0)
        assert find_crossover(alt) in (46, 47, 48)
        assert find_crossover(alt) > 46 or find_crossover(alt) == 46

    def test_none_when_out_of_range(self):
        assert find_crossover(qubit_range=range(2, 10)) is None


def test_constants_validated():
    with pytest.raises(ConfigurationError):
        EnergyConstants(gpu_flops=0.0)


@pytest.mark.parametrize("field", ["qpu_watts_per_qubit", "t_1q_seconds", "t_2q_seconds",
                                   "shots", "gpu_watts", "gpu_flops"])
@pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf")])
def test_non_positive_or_nan_constant_names_its_field(field, value):
    with pytest.raises(ConfigurationError, match=field):
        EnergyConstants(**{field: value})


@pytest.mark.parametrize("energy, constants", [
    (gpu_energy_kj, EnergyConstants(gpu_flops=1e-300)),
    (qpu_energy_kj, EnergyConstants(qpu_watts_per_qubit=1e307)),
    (qpu_energy_kj, EnergyConstants(shots=10**400)),
])
def test_energy_beyond_the_float_range_is_an_error(energy, constants):
    with pytest.raises(ConfigurationError, match="exceeds the float range"):
        energy(CircuitSpec(qubits=40), constants)

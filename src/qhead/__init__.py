"""Hybrid quantum-classical classification heads on a statevector simulator.

Simulated quantum encoders compress embedding vectors into Pauli-Z latents, a
data re-uploading circuit classifies them under configurable gate and shot
noise, and everything trains end to end with exact or parameter-shift
gradients. Classical baselines, an inference-energy estimator, and a
reproducible experiment CLI round out the package.
"""

from .ansatz import (
    CircuitSpec,
    GateList,
    assemble_head_circuit,
    build_block,
    build_entangling_layer,
    count_parameters,
    gate_counts,
)
from .baselines import LogisticModel, MlpConfig, MlpEncoder, MlpHead
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, config_from_mapping, parse_flat, serialize_flat
from .datasets import (
    EmbeddingDataset,
    append_anchor_feature,
    load_embeddings,
    make_count_splits,
    make_benchmark_splits,
    pca_project,
    save_embeddings_binary,
    save_embeddings_csv,
    synthetic_clusters,
)
from .energy import EnergyConstants, crossover_curve, find_crossover, gpu_energy_kj, qpu_energy_kj
from .errors import (
    ConfigurationError,
    DataError,
    DataFormatError,
    DegenerateInputError,
    UnsupportedModeError,
)
from .grad import (
    adjoint_gradient,
    evaluate_expectation,
    finite_difference_oracle,
    parameter_shift_gradient,
)
from .head import EncoderConfig, HybridHead, QuantumEncoder, build_hybrid_head
from .noise import (
    NoiseModel,
    depolarizing_reference_expectation,
    sample_pauli_insertions,
    shot_sample_expectation,
)
from .simcore import (
    StateVector,
    amplitude_encode,
    angle_encode,
    apply_cnot,
    apply_pauli,
    apply_ry,
    probabilities,
    z_expectation,
    zero_state,
)
from .trainer import TrainConfig, TrainReport, evaluate, train

__version__ = "0.1.0"

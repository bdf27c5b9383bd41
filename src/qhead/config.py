"""Flat key = value experiment configuration.

One option per line, ``key = value``; blank lines and ``#`` comments are
ignored. List syntax ``key = [a, b, c]`` marks a sweep axis and is only
meaningful to the sweep command; every other command requires scalars.
Values are typed by shape: integers, floats (``inf`` allowed for shots),
``true``/``false`` booleans, and bare strings. Parsing then serializing then
parsing again reproduces the same mapping exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .ansatz import CircuitSpec
from .errors import ConfigurationError, decode_utf8
from .noise import NoiseModel
from .trainer import TrainConfig

Scalar = int | float | bool | str


@dataclass(frozen=True)
class ExperimentConfig:
    """Every tunable of a run, resolved to scalars and validated."""

    # circuit and head shape
    qubits: int = 10
    encoders: int = 1
    reupload_count: int = 4
    main_layers: int = 2
    reupload_layers: int = 1
    connectivity: int = 1
    encoder_qubits: int = 0  # 0 means "same as qubits"
    encoder_layers: int = 27
    encoder_extra_rotation: bool = True
    num_classes: int = 2
    final_linear: bool = True
    # model selection (ablations swap these)
    model: str = "hybrid"  # hybrid | logistic | mlp-head
    encoder_type: str = "quantum"  # quantum | mlp
    encoder_hidden_layers: int = 0
    encoder_hidden_dim: int = 0
    mlp_hidden_layers: int = 0
    mlp_hidden_dim: int = 0
    mlp_batch_norm: bool = False
    # optimization
    batch_size: int = 16
    epochs: int = 800
    learning_rate: float = 1e-3
    lr_decay: float = 1.0
    weight_decay: float = 0.0
    seed: int = 0
    # noise
    shots: float = 8192  # math.inf disables shot sampling
    error_rate_1q: float = 0.0
    error_rate_2q: float = 0.0
    # data and outputs
    dataset: str = ""
    dataset_format: str = "binary"
    split_mode: str = "benchmark"  # benchmark | counts
    train_per_class: int = 40
    val_per_class: int = 15
    out_dir: str = "runs/experiment"

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError("seed: must be non-negative")
        if self.model not in ("hybrid", "logistic", "mlp-head"):
            raise ConfigurationError(f"model: unknown value {self.model!r}")
        if self.encoder_type not in ("quantum", "mlp"):
            raise ConfigurationError(f"encoder_type: unknown value {self.encoder_type!r}")
        if self.dataset_format not in ("binary", "csv"):
            raise ConfigurationError(f"dataset_format: unknown value {self.dataset_format!r}")
        if self.split_mode not in ("benchmark", "counts"):
            raise ConfigurationError(f"split_mode: unknown value {self.split_mode!r}")
        if self.num_classes < 2:
            raise ConfigurationError(f"num_classes: must be >= 2, got {self.num_classes}")
        if self.shots != math.inf and not (self.shots >= 1 and self.shots == int(self.shots)):
            raise ConfigurationError(f"shots: must be a positive integer or inf, got {self.shots}")
        if not 0.0 <= self.error_rate_1q <= 1.0 or not 0.0 <= self.error_rate_2q <= 1.0:
            raise ConfigurationError("error_rate_1q/error_rate_2q: must be in [0, 1]")
        # construct the downstream pieces eagerly so bad values fail here,
        # with a field-level message, before any work starts
        if self.model == "hybrid":
            try:
                self.circuit_spec()
            except ConfigurationError as exc:
                raise ConfigurationError(f"circuit shape: {exc}") from exc
            if self.encoder_type == "quantum":
                self.encoder_config()
            else:
                self.encoder_mlp_config()
            latent = self.latent_dim()
            if latent % self.qubits:
                raise ConfigurationError(
                    f"encoder_qubits: latent length {latent} must be a multiple of qubits "
                    f"{self.qubits}"
                )
            if not self.final_linear and self.num_classes != 2:
                raise ConfigurationError("final_linear: disabling it requires num_classes = 2")
        if self.model == "mlp-head":
            self.mlp_config()
        self.train_config()
        self.noise_model()

    # ---- derived objects -------------------------------------------------

    def resolved_encoder_qubits(self) -> int:
        return self.encoder_qubits if self.encoder_qubits else self.qubits

    def latent_dim(self) -> int:
        return self.encoders * self.resolved_encoder_qubits()

    def circuit_spec(self) -> CircuitSpec:
        return CircuitSpec(
            qubits=self.qubits,
            connectivity=self.connectivity,
            main_layers=self.main_layers,
            reupload_layers=self.reupload_layers,
            reupload_count=self.reupload_count,
        )

    def encoder_config(self):
        from .head import EncoderConfig

        return EncoderConfig(
            num_encoders=self.encoders,
            encoder_qubits=self.resolved_encoder_qubits(),
            encoder_layers=self.encoder_layers,
            connectivity=min(self.connectivity, max(self.resolved_encoder_qubits() - 1, 1)),
            extra_rotation=self.encoder_extra_rotation,
        )

    def encoder_mlp_config(self):
        from .baselines import MlpConfig

        return MlpConfig(self.encoder_hidden_layers, self.encoder_hidden_dim)

    def mlp_config(self):
        from .baselines import MlpConfig

        return MlpConfig(self.mlp_hidden_layers, self.mlp_hidden_dim, self.mlp_batch_norm)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            lr_decay=self.lr_decay,
            weight_decay=self.weight_decay,
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=self.seed,
        )

    def noise_model(self) -> NoiseModel:
        shots = None if self.shots == math.inf else int(self.shots)
        return NoiseModel(
            p1q=self.error_rate_1q, p2q=self.error_rate_2q, shots=shots, seed=self.seed
        )


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(raw: str) -> Scalar:
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _format_value(value: Scalar) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_flat(text: str) -> dict[str, Scalar | list[Scalar]]:
    """Parse flat key = value lines into a typed mapping."""
    mapping: dict[str, Scalar | list[Scalar]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        if key in mapping:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        if raw.startswith("[") and raw.endswith("]"):
            items = [part.strip() for part in raw[1:-1].split(",") if part.strip()]
            if not items:
                raise ConfigurationError(f"line {lineno}: empty list for {key!r}")
            mapping[key] = [_parse_value(item) for item in items]
        else:
            mapping[key] = _parse_value(raw)
    return mapping


def serialize_flat(mapping: dict[str, Scalar | list[Scalar]]) -> str:
    """Canonical text form: sorted keys, one per line."""
    lines = []
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, list):
            lines.append(f"{key} = [{', '.join(_format_value(v) for v in value)}]")
        else:
            lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


def _coerce(key: str, value: Scalar) -> Scalar:
    """Nudge parse-level types onto the field types (int -> float, 0/1 -> bool)."""
    target = _FIELD_TYPES[key]
    if target == "bool":
        if isinstance(value, bool):
            return value
        raise ConfigurationError(f"{key}: expected true or false, got {value!r}")
    if target == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{key}: expected an integer, got {value!r}")
        return value
    if target == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{key}: expected a number, got {value!r}")
        return float(value)
    if target == "str":
        if not isinstance(value, str):
            raise ConfigurationError(f"{key}: expected a string, got {value!r}")
        return value
    raise ConfigurationError(f"{key}: unsupported field type {target}")


def config_from_mapping(mapping: dict[str, Scalar | list[Scalar]]) -> ExperimentConfig:
    """Validate a scalar mapping into an ExperimentConfig (field-level errors)."""
    kwargs = {}
    for key, value in mapping.items():
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"{key}: unknown configuration key")
        if isinstance(value, list):
            raise ConfigurationError(
                f"{key}: list values define sweep axes and are only valid with the "
                f"sweep command"
            )
        kwargs[key] = _coerce(key, value)
    return ExperimentConfig(**kwargs)


def load_config(path) -> dict[str, Scalar | list[Scalar]]:
    return parse_flat(decode_utf8(Path(path).read_bytes(), ConfigurationError, path))


def sweep_axes(mapping: dict[str, Scalar | list[Scalar]]) -> list[str]:
    return sorted(key for key, value in mapping.items() if isinstance(value, list))


def expand_sweep(mapping: dict[str, Scalar | list[Scalar]]) -> list[dict[str, Scalar]]:
    """Cartesian product over the list-valued keys, in sorted-key order."""
    axes = sweep_axes(mapping)
    points: list[dict[str, Scalar]] = [
        {k: v for k, v in mapping.items() if not isinstance(v, list)}
    ]
    for axis in axes:
        points = [dict(p, **{axis: value}) for p in points for value in mapping[axis]]
    return points

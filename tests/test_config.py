"""Flat config parsing, validation, and sweep expansion."""
from __future__ import annotations

import math

import pytest

from qhead.config import (
    ExperimentConfig,
    config_from_mapping,
    expand_sweep,
    parse_flat,
    serialize_flat,
    sweep_axes,
)
from qhead.errors import ConfigurationError


class TestParsing:
    def test_types(self):
        mapping = parse_flat(
            "qubits = 10\n"
            "learning_rate = 2.5e-3\n"
            "final_linear = true\n"
            "shots = inf\n"
            "dataset = data/train.emb\n"
        )
        assert mapping["qubits"] == 10 and isinstance(mapping["qubits"], int)
        assert mapping["learning_rate"] == 0.0025
        assert mapping["final_linear"] is True
        assert mapping["shots"] == math.inf
        assert mapping["dataset"] == "data/train.emb"

    def test_comments_and_blanks(self):
        mapping = parse_flat("# a comment\n\nqubits = 4\n   # indented comment\n")
        assert mapping == {"qubits": 4}

    def test_lists(self):
        mapping = parse_flat("learning_rate = [0.001, 0.0015, 0.0025, 0.003, 0.005]\n")
        assert mapping["learning_rate"] == [0.001, 0.0015, 0.0025, 0.003, 0.005]

    def test_round_trip_identity(self):
        text = (
            "qubits = [10, 12]\n"
            "learning_rate = [0.001, 0.005]\n"
            "shots = 8192\n"
            "lr_decay = 1.0\n"
            "final_linear = false\n"
            "dataset = runs/data.emb\n"
        )
        first = parse_flat(text)
        second = parse_flat(serialize_flat(first))
        assert first == second
        assert parse_flat(serialize_flat(second)) == second

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_flat("qubits = 4\nnonsense\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_flat("qubits = 4\nqubits = 5\n")

    @pytest.mark.parametrize("text, message", [
        ("qubits = 4\n = 5\n", "line 2: empty key"),
        ("a = []\n", "line 1: empty list for 'a'"),
    ])
    def test_rejected_lines(self, text, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_flat(text)


class TestValidation:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="qubitz"):
            config_from_mapping({"qubitz": 4})

    def test_list_rejected_outside_sweep(self):
        with pytest.raises(ConfigurationError, match="learning_rate"):
            config_from_mapping({"learning_rate": [0.1, 0.2]})

    def test_wrong_type_named(self):
        with pytest.raises(ConfigurationError, match="batch_size"):
            config_from_mapping({"batch_size": 2.5})

    @pytest.mark.parametrize("mapping, message", [
        ({"seed": -1}, "seed: must be non-negative"),
        ({"model": "svm"}, "model: unknown value 'svm'"),
        ({"encoder_type": "classical"}, "encoder_type: unknown value 'classical'"),
        ({"dataset_format": "json"}, "dataset_format: unknown value 'json'"),
        ({"split_mode": "random"}, "split_mode: unknown value 'random'"),
        ({"num_classes": 1}, "num_classes: must be >= 2, got 1"),
        ({"error_rate_1q": 1.5}, r"error_rate_1q/error_rate_2q: must be in \[0, 1\]"),
        ({"error_rate_2q": -0.1}, r"error_rate_1q/error_rate_2q: must be in \[0, 1\]"),
        ({"final_linear": False, "num_classes": 3}, "final_linear: disabling it requires"),
        ({"final_linear": 1}, "final_linear: expected true or false, got 1"),
        ({"learning_rate": "fast"}, "learning_rate: expected a number, got 'fast'"),
    ])
    def test_rejected_setting_is_named(self, mapping, message):
        with pytest.raises(ConfigurationError, match=message):
            config_from_mapping(mapping)

    def test_downstream_constraints_checked(self):
        with pytest.raises(ConfigurationError, match="circuit shape"):
            config_from_mapping({"qubits": 4, "connectivity": 4})

    def test_latent_divisibility(self):
        with pytest.raises(ConfigurationError, match="encoder_qubits"):
            config_from_mapping({"qubits": 4, "encoder_qubits": 6})

    def test_shots_inf_maps_to_unlimited(self):
        cfg = config_from_mapping({"shots": math.inf})
        assert cfg.noise_model().shots is None

    def test_shots_integer(self):
        cfg = config_from_mapping({"shots": 4096})
        assert cfg.noise_model().shots == 4096

    def test_defaults_are_reference_shape(self):
        cfg = ExperimentConfig()
        spec = cfg.circuit_spec()
        assert (spec.qubits, spec.main_layers, spec.reupload_count, spec.reupload_layers) == (
            10, 2, 4, 1,
        )
        assert cfg.encoder_config().encoder_layers == 27

    def test_stacked_encoder_latent(self):
        cfg = config_from_mapping({"qubits": 4, "encoders": 2, "encoder_qubits": 4})
        assert cfg.latent_dim() == 8


class TestSweep:
    def test_grid_expansion(self):
        mapping = parse_flat("qubits = [3, 4]\nlearning_rate = [0.01, 0.02]\nepochs = 2\n")
        points = expand_sweep(mapping)
        assert len(points) == 4
        combos = {(p["qubits"], p["learning_rate"]) for p in points}
        assert combos == {(3, 0.01), (3, 0.02), (4, 0.01), (4, 0.02)}
        assert all(p["epochs"] == 2 for p in points)

    def test_axes_sorted(self):
        mapping = parse_flat("learning_rate = [0.1]\nbatch_size = [8, 16]\n")
        assert sweep_axes(mapping) == ["batch_size", "learning_rate"]

    def test_no_axes_single_point(self):
        assert expand_sweep({"qubits": 4}) == [{"qubits": 4}]


@pytest.mark.parametrize("key, value", [
    ("shots", math.nan),
    ("shots", -math.inf),
    ("learning_rate", math.nan),
    ("learning_rate", math.inf),
    ("learning_rate", 0.0),
    ("learning_rate", -0.01),
    ("weight_decay", math.nan),
    ("weight_decay", math.inf),
])
def test_non_finite_or_out_of_range_setting_names_its_field(key, value):
    with pytest.raises(ConfigurationError, match=key):
        config_from_mapping({key: value})


def test_config_byte_that_is_not_utf8_names_its_line(tmp_path):
    from qhead.config import load_config

    path = tmp_path / "latin1.txt"
    path.write_bytes(b"qubits = 3\n# caf\xe9\n")
    with pytest.raises(ConfigurationError, match="line 2 is not UTF-8 \\(byte 16\\)"):
        load_config(path)

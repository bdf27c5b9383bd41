"""Command-line surface: artifacts, exit codes, determinism."""
from __future__ import annotations

import json

import numpy as np
import pytest

from qhead.cli import main
from qhead.datasets import save_embeddings_binary, synthetic_clusters


@pytest.fixture()
def smoke_data(tmp_path):
    ds = synthetic_clusters(dim=8, n_per_class=20, separation=6.0, seed=1)
    path = tmp_path / "smoke.emb"
    save_embeddings_binary(ds, path)
    return path


def _write_config(tmp_path, dataset, **overrides):
    base = {
        "qubits": 3,
        "encoder_layers": 1,
        "main_layers": 1,
        "reupload_count": 1,
        "epochs": 3,
        "batch_size": 8,
        "learning_rate": 0.02,
        "shots": "inf",
        "dataset": dataset,
        "split_mode": "counts",
        "train_per_class": 10,
        "val_per_class": 4,
        "seed": 7,
    }
    base.update(overrides)
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()), encoding="utf-8")
    return path


class TestTrain:
    def test_artifacts_and_content(self, tmp_path, smoke_data):
        cfg = _write_config(tmp_path, smoke_data)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 7
        assert report["config"]["dataset"] == str(smoke_data)
        assert report["parameter_count"] == 1 * (1 * 3 + 1) + 3 * (1 + 1) + (3 + 1) * 2
        assert 0.0 <= report["test_accuracy"] <= 1.0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert any(line.startswith("# dataset =") for line in metrics)
        assert "epoch,loss,val_acc" in metrics
        assert (out / "checkpoint.qhd1").exists()
        assert (out / "timing.json").exists()

    def test_bit_identical_reruns_including_noise(self, tmp_path, smoke_data):
        cfg = _write_config(tmp_path, smoke_data, shots=128,
                            error_rate_1q=0.001, error_rate_2q=0.01)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("report.json", "metrics.csv", "checkpoint.qhd1")
        }
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_seed_override_changes_report(self, tmp_path, smoke_data):
        cfg = _write_config(tmp_path, smoke_data)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out_b), "--seed", "99"]) == 0
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        assert a["seed"] == 7 and b["seed"] == 99

    def test_missing_dataset_exit_code_and_message(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, tmp_path / "nope.emb")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "nope.emb" in capsys.readouterr().err

    def test_no_dataset_path_rejected(self):
        from qhead.cli import load_dataset
        from qhead.config import ExperimentConfig
        from qhead.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="dataset: no path configured"):
            load_dataset(ExperimentConfig())

    def test_invalid_config_field_message(self, tmp_path, smoke_data, capsys):
        cfg = _write_config(tmp_path, smoke_data, connectivity=9)
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "circuit shape" in capsys.readouterr().err

    def test_logistic_model_from_config(self, tmp_path, smoke_data):
        cfg = _write_config(tmp_path, smoke_data, model="logistic")
        out = tmp_path / "logistic"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["parameter_count"] == 8 + 1

    def test_reference_ten_qubit_config_reports_353_parameters(self, tmp_path):
        ds = synthetic_clusters(dim=768, n_per_class=18, separation=6.0, seed=2)
        data_path = tmp_path / "wide.emb"
        save_embeddings_binary(ds, data_path)
        cfg = _write_config(
            tmp_path, data_path, qubits=10, encoder_layers=27, main_layers=2,
            reupload_count=4, epochs=2, train_per_class=10, val_per_class=4,
        )
        out = tmp_path / "ten"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["parameter_count"] == 353


class TestEval:
    def test_checkpoint_eval_matches_train_report(self, tmp_path, smoke_data):
        cfg = _write_config(tmp_path, smoke_data, shots=256, error_rate_1q=0.001)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        out_eval = tmp_path / "eval"
        assert main([
            "eval", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.qhd1"),
            "--split", "test", "--out", str(out_eval),
        ]) == 0
        eval_report = json.loads((out_eval / "eval_report.json").read_text())
        assert eval_report["accuracy"] == report["test_accuracy"]


def test_eval_of_a_checkpoint_with_huge_dims_exits_2(tmp_path, smoke_data, capsys,
                                                      wrapping_checkpoint):
    cfg = _write_config(tmp_path, smoke_data)
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(wrapping_checkpoint),
                 "--out", str(tmp_path / "eval")]) == 2
    assert "truncated checkpoint" in capsys.readouterr().err


class TestSweep:
    def test_grid_reports_and_summary(self, tmp_path, smoke_data):
        cfg = _write_config(tmp_path, smoke_data, qubits="[3, 4]",
                            learning_rate="[0.01, 0.02]", epochs=2)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        points = sorted(p.name for p in out.glob("point_*"))
        assert points == ["point_000", "point_001", "point_002", "point_003"]
        sweep_report = json.loads((out / "sweep_report.json").read_text())
        assert all(row["status"] == "ok" for row in sweep_report["points"])

        summary = [
            line for line in (out / "summary.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert summary[0] == "qubits,best_val_accuracy,test_accuracy,point"
        rows = [line.split(",") for line in summary[1:]]
        assert [r[0] for r in rows] == ["3", "4"]
        # summary best equals the max over that qubit count's members
        for q in (3, 4):
            members = [
                row["best_val_accuracy"]
                for row in sweep_report["points"]
                if row["qubits"] == q
            ]
            summary_best = float(next(r[1] for r in rows if r[0] == str(q)))
            assert summary_best == max(members)

    def test_parallel_jobs_match_sequential(self, tmp_path, smoke_data):
        cfg = _write_config(tmp_path, smoke_data, learning_rate="[0.01, 0.02]", epochs=2)
        out_seq, out_par = tmp_path / "seq", tmp_path / "par"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_seq)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out_par), "--jobs", "2"]) == 0
        for point in ("point_000", "point_001"):
            a = json.loads((out_seq / point / "report.json").read_text())
            b = json.loads((out_par / point / "report.json").read_text())
            a["config"].pop("out_dir")
            b["config"].pop("out_dir")
            assert a == b

    def test_default_qubits_reported(self, tmp_path, smoke_data):
        # a sweep config that leaves qubits unset reports the default width
        cfg = _write_config(tmp_path, smoke_data, learning_rate="[0.01, 0.02]", epochs=1,
                            train_per_class=4, val_per_class=2)
        lines = cfg.read_text(encoding="utf-8").splitlines(keepends=True)
        cfg.write_text("".join(line for line in lines if not line.startswith("qubits")),
                       encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        assert [row["qubits"] for row in report["points"]] == [10, 10]
        summary = [
            line for line in (out / "summary.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(summary) == 2 and summary[1].startswith("10,")

    def test_failures_recorded_and_sweep_continues(self, tmp_path, smoke_data):
        # second qubit value is invalid (connectivity >= qubits there)
        cfg = _write_config(tmp_path, smoke_data, qubits="[3, 2]", connectivity=2,
                            encoder_layers=0, epochs=2)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        statuses = {row["point"]: row["status"] for row in report["points"]}
        assert statuses["point_000"] == "ok"  # qubits=3, first listed value
        assert statuses["point_001"].startswith("failed")  # qubits=2
        failed = report["points"][1]
        assert failed["best_val_accuracy"] is None and failed["test_accuracy"] is None


class _RecordingPool:
    """Stands in for ``multiprocessing.Pool``: records its size, maps in this process."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]


class TestSweepJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, smoke_data, capsys, monkeypatch, jobs):
        monkeypatch.setattr("qhead.cli.multiprocessing.Pool", _RecordingPool)
        _RecordingPool.sizes = []
        cfg = _write_config(tmp_path, smoke_data, learning_rate="[0.01, 0.02]", epochs=1)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()
        assert _RecordingPool.sizes == []

    @pytest.mark.parametrize("rates, points, workers",
                             [("[0.01, 0.02]", 2, [2]), ("0.01", 1, [])])
    def test_at_most_one_worker_per_point(self, tmp_path, smoke_data, monkeypatch,
                                          rates, points, workers):
        monkeypatch.setattr("qhead.cli.multiprocessing.Pool", _RecordingPool)
        _RecordingPool.sizes = []
        cfg = _write_config(tmp_path, smoke_data, learning_rate=rates, epochs=1)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "8"]) == 0
        assert _RecordingPool.sizes == workers
        report = json.loads((out / "sweep_report.json").read_text())
        assert [row["status"] for row in report["points"]] == ["ok"] * points


class TestAblate:
    @pytest.mark.parametrize("mode", ["nn-encoder", "nn-head", "no-final-linear"])
    def test_modes_train(self, tmp_path, smoke_data, mode):
        cfg = _write_config(tmp_path, smoke_data, epochs=2)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        report = json.loads((out / mode / "report.json").read_text())
        assert 0.0 <= report["test_accuracy"] <= 1.0

    def test_no_final_linear_parameter_delta(self, tmp_path, smoke_data):
        cfg = _write_config(tmp_path, smoke_data, epochs=2)
        out = tmp_path / "runs"
        assert main(["train", "--config", str(cfg), "--out", str(out / "base")]) == 0
        assert main(["ablate", "--config", str(cfg), "--mode", "no-final-linear",
                     "--out", str(out)]) == 0
        base = json.loads((out / "base" / "report.json").read_text())
        ablated = json.loads((out / "no-final-linear" / "report.json").read_text())
        assert base["parameter_count"] - ablated["parameter_count"] == (3 + 1) * 2


class TestGradcheck:
    def test_small_config_passes(self, tmp_path, smoke_data):
        cfg = _write_config(tmp_path, smoke_data, qubits=3, encoder_layers=1)
        out = tmp_path / "gc"
        assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "gradcheck.json").read_text())
        assert payload["passed"] is True
        assert payload["max_deviation"] < 1e-4

    def test_batch_norm_mlp_head_passes(self, tmp_path, smoke_data):
        # the gradient uses the batch statistics, so the finite-difference
        # loss must too, not the running ones that prediction reads
        cfg = _write_config(tmp_path, smoke_data, model="mlp-head", mlp_hidden_layers=1,
                            mlp_hidden_dim=8, mlp_batch_norm="true")
        out = tmp_path / "gc"
        assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "gradcheck.json").read_text())
        assert payload["passed"] is True
        assert payload["max_deviation"] < 1e-4


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "energy.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qhead", "energy", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "crossover at 46 qubits" in proc.stdout
    assert out.exists()


class TestEnergy:
    def test_default_crossover_and_curve(self, tmp_path, capsys):
        out = tmp_path / "energy.csv"
        assert main(["energy", "--out", str(out)]) == 0
        assert "crossover at 46 qubits" in capsys.readouterr().out
        lines = [
            line for line in out.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0] == "qubits,e_qpu_kj,e_gpu_kj"
        rows = [line.split(",") for line in lines[1:]]
        diff_signs = [float(r[2]) >= float(r[1]) for r in rows]
        assert sum(1 for a, b in zip(diff_signs, diff_signs[1:]) if a != b) == 1
        gpu = [float(r[2]) for r in rows]
        assert all(b > a for a, b in zip(gpu, gpu[1:]))

    def test_constants_override_moves_crossover(self, tmp_path, capsys):
        out = tmp_path / "energy.csv"
        assert main(["energy", "--out", str(out), "--gpu-flops", "3.4e14"]) == 0
        printed = capsys.readouterr().out
        assert "crossover at 49 qubits" in printed or "crossover at 50 qubits" in printed


class TestEvalEveryModelKind:
    @pytest.mark.parametrize("overrides", [
        {"model": "logistic"},
        {"model": "mlp-head"},
        {"model": "mlp-head", "mlp_hidden_layers": 1, "mlp_hidden_dim": 4},
    ])
    def test_classical_checkpoint_eval_matches_train_report(self, tmp_path, smoke_data,
                                                            overrides):
        cfg = _write_config(tmp_path, smoke_data, **overrides)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        out_eval = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(out / "checkpoint.qhd1"), "--out", str(out_eval)]) == 0
        eval_report = json.loads((out_eval / "eval_report.json").read_text())
        assert eval_report["accuracy"] == report["test_accuracy"]

    def test_batch_norm_head_checkpoint_is_refused(self, tmp_path, smoke_data, capsys):
        # the checkpoint holds gamma and beta but no running statistics
        cfg = _write_config(tmp_path, smoke_data, model="mlp-head", mlp_hidden_layers=1,
                            mlp_hidden_dim=4, mlp_batch_norm="true")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg), "--checkpoint",
                     str(out / "checkpoint.qhd1"), "--out", str(tmp_path / "eval")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: batch norm")
        assert "not stored in checkpoints" in err and "training batch" not in err


class TestEnergySettings:
    def test_comment_lists_the_constants_in_use(self, tmp_path):
        out = tmp_path / "energy.csv"
        assert main(["energy", "--out", str(out), "--qpu-watts", "900", "--shots", "100"]) == 0
        comments = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert comments == [
            "# crossover_qubits = 42",
            "# gpu_flops = 34000000000000.0",
            "# gpu_watts = 700.0",
            "# qpu_watts_per_qubit = 900.0",
            "# shots = 100",
            "# t_1q_seconds = 0.0001",
            "# t_2q_seconds = 1e-05",
        ]

    @pytest.mark.parametrize("flag", ["--gpu-flops", "--qpu-watts", "--t-1q"])
    def test_nan_constant_exits_2(self, tmp_path, capsys, flag):
        code = main(["energy", "--out", str(tmp_path / "energy.csv"), flag, "nan"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_qubit_range_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "energy.csv"
        code = main(["energy", "--out", str(out), "--min-qubits", "10", "--max-qubits", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--min-qubits 10" in err and "--max-qubits 5" in err
        assert not out.exists()

    def test_qubits_beyond_the_float_range_exit_2_and_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "energy.csv"
        assert main(["energy", "--out", str(out), "--max-qubits", "1100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "float range" in err
        assert not out.exists()

    def test_energy_that_overflows_to_inf_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "energy.csv"
        argv = ["energy", "--out", str(out), "--gpu-flops", "1e-300", "--max-qubits", "40"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "GPU energy" in err and "float range" in err
        assert not out.exists()

    def test_infinite_constant_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "energy.csv"
        assert main(["energy", "--out", str(out), "--gpu-flops", "inf"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gpu_flops must be finite" in err
        assert not out.exists()


@pytest.mark.parametrize("value, shown", [("5", "5"), ("[a, b]", "['a', 'b']")],
                         ids=["number", "list"])
@pytest.mark.parametrize("command", [["train"], ["ablate", "--mode", "nn-head"], ["sweep"]],
                         ids=["train", "ablate", "sweep"])
def test_out_dir_that_is_not_a_string_exits_2_and_writes_nothing(tmp_path, capsys, smoke_data,
                                                                 command, value, shown):
    cfg = _write_config(tmp_path, smoke_data, out_dir=value)
    assert main(command + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: out_dir: expected a string, got {shown}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt", "smoke.emb"]


class TestUnreadableInputsExit2:
    """Input files that cannot be read end in ``error: ...`` and exit 2, not a traceback."""

    def _run(self, tmp_path, capsys, argv):
        code = main(argv + ["--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_bytes(b"qubits = 3\ndataset = caf\xe9.emb\n")
        code, err = self._run(tmp_path, capsys, ["train", "--config", str(cfg)])
        assert code == 2 and err.startswith("error: ") and "line 2 is not UTF-8" in err

    def test_csv_dataset_that_is_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"label,f0\n0,1.0\n1,\xff\n")
        cfg = _write_config(tmp_path, data, dataset_format="csv")
        code, err = self._run(tmp_path, capsys, ["train", "--config", str(cfg)])
        assert code == 2 and err.startswith("error: ") and "line 3 is not UTF-8" in err

    @pytest.mark.parametrize("field, at", [("metadata", 13), ("array name", 18)])
    def test_checkpoint_text_that_is_not_utf8(self, tmp_path, capsys, smoke_data, field, at):
        from qhead.checkpoint import save_checkpoint

        ckpt = tmp_path / "bad.qhd1"
        save_checkpoint(ckpt, {"w": [1.0]}, meta="abc" if field == "metadata" else "")
        blob = bytearray(ckpt.read_bytes())
        blob[at] = 0xFF
        ckpt.write_bytes(bytes(blob))
        cfg = _write_config(tmp_path, smoke_data)
        code, err = self._run(tmp_path, capsys,
                              ["eval", "--config", str(cfg), "--checkpoint", str(ckpt)])
        assert code == 2 and err.startswith("error: ")
        assert f"{field}: line 1 is not UTF-8 (byte {at})" in err

    def test_config_path_that_is_a_directory(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, ["train", "--config", str(tmp_path)])
        assert code == 2 and err.startswith("error: ") and str(tmp_path) in err

    def test_dataset_path_that_is_a_directory(self, tmp_path, capsys):
        folder = tmp_path / "data"
        folder.mkdir()
        cfg = _write_config(tmp_path, folder)
        code, err = self._run(tmp_path, capsys, ["train", "--config", str(cfg)])
        assert code == 2 and err.startswith("error: ") and str(folder) in err

    @pytest.mark.parametrize("sub", [(), ("sub",)], ids=["file", "under-file"])
    def test_train_output_under_a_regular_file(self, tmp_path, capsys, smoke_data, sub):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n", encoding="utf-8")
        cfg = _write_config(tmp_path, smoke_data)
        out = blocker.joinpath(*sub)
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and str(blocker) in err
        assert blocker.read_text(encoding="utf-8") == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.txt", "smoke.emb"]

    def test_energy_curve_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n", encoding="utf-8")
        code = main(["energy", "--out", str(blocker / "curve.csv")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and str(blocker) in err
        assert blocker.read_text(encoding="utf-8") == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]

    @pytest.mark.parametrize("split_mode", ["benchmark", "counts"])
    def test_empty_dataset(self, tmp_path, capsys, split_mode):
        from qhead.datasets import EmbeddingDataset

        data = tmp_path / "empty.emb"
        save_embeddings_binary(EmbeddingDataset(np.zeros((0, 8)), np.zeros(0)), data)
        cfg = _write_config(tmp_path, data, split_mode=split_mode)
        code, err = self._run(tmp_path, capsys, ["train", "--config", str(cfg)])
        assert code == 2 and err == "error: dataset has no samples\n"
